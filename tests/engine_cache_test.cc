// The engine's two caches and their version-based invalidation:
//   * plan cache — (normalized text, knob fingerprint, catalog version),
//   * key cache  — (preference fingerprint, table id, table version),
// plus the stats/EXPLAIN surface (`plan_cache_hit`, `key_cache_hit`,
// eviction counters) and the preference tree hashes the key cache rests on.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/connection.h"
#include "sql/normalize.h"
#include "sql/parser.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

class EngineCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(conn_.ExecuteScript(
                         "CREATE TABLE gear (name TEXT, price INTEGER, "
                         "weight INTEGER);"
                         "INSERT INTO gear VALUES ('tent', 300, 4), "
                         "('tarp', 120, 2), ('bivy', 180, 1), "
                         "('hammock', 150, 2)")
                    .ok());
  }

  Connection conn_;
  const std::string kQuery =
      "SELECT name FROM gear PREFERRING LOWEST(price) AND LOWEST(weight)";
};

TEST_F(EngineCacheTest, RepeatedStatementHitsThePlanCache) {
  auto first = conn_.Execute(kQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);

  auto second = conn_.Execute(kQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  EXPECT_EQ(first->ToString(), second->ToString());

  // Whitespace-variant text maps onto the same entry.
  auto respelled = conn_.Execute(
      "SELECT name  FROM gear\n PREFERRING LOWEST(price) AND "
      "LOWEST(weight);");
  ASSERT_TRUE(respelled.ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  EXPECT_EQ(first->ToString(), respelled->ToString());

  // Case-variant text keys separately (identifier case affects result
  // headers, so it must never be served another spelling's preparation) —
  // but still computes the same rows.
  auto lower = conn_.Execute(
      "select name from gear preferring lowest(price) and lowest(weight)");
  ASSERT_TRUE(lower.ok());
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  EXPECT_EQ(first->ToString(), lower->ToString());
}

TEST_F(EngineCacheTest, LimitVariantsShareOnePreparedPlan) {
  // Auto-parameterization lifts the LIMIT count too, so texts differing
  // only in the count key onto one prepared plan.
  const std::string base =
      "SELECT name FROM gear PREFERRING LOWEST(price) AND LOWEST(weight)";
  auto r1 = conn_.Execute(base + " LIMIT 1");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  EXPECT_TRUE(conn_.last_stats().auto_parameterized);
  EXPECT_EQ(r1->num_rows(), 1u);

  auto r2 = conn_.Execute(base + " LIMIT 3");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);  // only the count differs
  EXPECT_EQ(conn_.last_stats().bound_parameters, 1u);
  EXPECT_EQ(r2->num_rows(), 2u);  // the full skyline: tarp, bivy
}

TEST_F(EngineCacheTest, DdlInvalidatesThePlanCache) {
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_TRUE(conn_.last_stats().plan_cache_hit);

  // Any DDL bumps the catalog version; the old preparation is unreachable
  // and the sweep reclaims it (visible in the eviction counter).
  ASSERT_TRUE(conn_.Execute("CREATE TABLE other (z INTEGER)").ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  EXPECT_GT(conn_.last_stats().plan_cache_evictions, 0u);
}

TEST_F(EngineCacheTest, ChangedKnobsDoNotSharePreparations) {
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);  // different knob key
}

TEST_F(EngineCacheTest, RedefinedPreferenceIsNotServedStale) {
  ASSERT_TRUE(
      conn_.Execute("CREATE PREFERENCE cheap AS LOWEST(price)").ok());
  const std::string q = "SELECT name FROM gear PREFERRING PREFERENCE cheap";
  auto r1 = conn_.Execute(q);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->num_rows(), 1u);  // tarp (120)

  ASSERT_TRUE(conn_.Execute("DROP PREFERENCE cheap").ok());
  ASSERT_TRUE(
      conn_.Execute("CREATE PREFERENCE cheap AS HIGHEST(price)").ok());
  auto r2 = conn_.Execute(q);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->num_rows(), 1u);
  EXPECT_EQ(r2->at(0, 0).AsText(), "tent");  // 300: expansion re-prepared
}

TEST_F(EngineCacheTest, RepeatedPreferringQueryHitsTheKeyCache) {
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  EXPECT_TRUE(conn_.last_stats().key_cache_eligible)
      << conn_.last_stats().key_cache_detail;
  EXPECT_FALSE(conn_.last_stats().key_cache_hit);

  auto warm = conn_.Execute(kQuery);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(conn_.last_stats().key_cache_hit)
      << conn_.last_stats().key_cache_detail;
  // The keys were reused wholesale: no rebuild happened at all.
  EXPECT_EQ(conn_.last_stats().bmo_key_build_ns, 0u);
}

TEST_F(EngineCacheTest, KeyCacheIsSharedAcrossSessionsAndAlgorithms) {
  auto engine = conn_.engine();
  Connection other;
  other.Attach(engine);
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(other.Execute("SET evaluation_mode = sfs").ok());

  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_FALSE(conn_.last_stats().key_cache_hit);
  // Same preference + same table version: the other session (and the other
  // skyline algorithm) reuses the keys — they are algorithm-independent.
  ASSERT_TRUE(other.Execute(kQuery).ok());
  EXPECT_TRUE(other.last_stats().key_cache_hit)
      << other.last_stats().key_cache_detail;
}

TEST_F(EngineCacheTest, DmlMaintainsTheSkylineCacheIncrementally) {
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_TRUE(conn_.last_stats().key_cache_hit);

  // A new dominator must appear in the next result. The INSERT does not
  // discard the cached entry — it is carried to the new table version by
  // keying the new row and dominance-testing it against the cached skyline
  // — so the repeat query still hits, and is served from the maintained
  // skyline position list without a dominance pass.
  ASSERT_TRUE(
      conn_.Execute("INSERT INTO gear VALUES ('quilt', 100, 1)").ok());
  EXPECT_GT(conn_.last_stats().skyline_maintenance_events, 0u);
  auto fresh = conn_.Execute(kQuery);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(conn_.last_stats().key_cache_hit)
      << conn_.last_stats().key_cache_detail;
  EXPECT_TRUE(conn_.last_stats().skyline_cache_hit)
      << conn_.last_stats().skyline_cache_detail;
  // Double-residency regression: with no reader pinned at the old
  // snapshot, the carry is an in-place rekey — at no instant were both the
  // predecessor and the maintained entry resident, so nothing was evicted
  // and the cache holds exactly one entry for the preference.
  EXPECT_EQ(conn_.last_stats().key_cache_evictions, 0u);
  EXPECT_EQ(conn_.engine()->key_cache().size(), 1u);
  ASSERT_EQ(fresh->num_rows(), 1u);
  EXPECT_EQ(fresh->at(0, 0).AsText(), "quilt");
}

TEST_F(EngineCacheTest, DroppedAndRecreatedTableNeverMatchesOldKeys) {
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_TRUE(conn_.Execute("DROP TABLE gear").ok());
  ASSERT_TRUE(conn_.ExecuteScript(
                       "CREATE TABLE gear (name TEXT, price INTEGER, "
                       "weight INTEGER);"
                       "INSERT INTO gear VALUES ('new', 1, 1)")
                  .ok());
  auto r = conn_.Execute(kQuery);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(conn_.last_stats().key_cache_hit);  // new table id
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->at(0, 0).AsText(), "new");
}

TEST(ViewMaterializationTest, ViewsSeeEveryCommittedWrite) {
  // A view is materialized per statement, never across statements: after an
  // INSERT ... SELECT PREFERRING into its base table, the view shows the
  // new row in every evaluation mode.
  for (const char* mode : {"bnl", "rewrite"}) {
    Connection conn;
    ASSERT_TRUE(conn.ExecuteScript(
                        "CREATE TABLE t (x INTEGER);"
                        "INSERT INTO t VALUES (1);"
                        "CREATE TABLE src (x INTEGER);"
                        "INSERT INTO src VALUES (5);"
                        "CREATE VIEW v AS SELECT * FROM t")
                    .ok());
    auto before = conn.Execute("SELECT * FROM v");
    ASSERT_TRUE(before.ok()) << mode << ": " << before.status().ToString();
    EXPECT_EQ(before->num_rows(), 1u) << mode;
    ASSERT_TRUE(
        conn.Execute(std::string("SET evaluation_mode = ") + mode).ok());
    auto insert =
        conn.Execute("INSERT INTO t SELECT x FROM src PREFERRING LOWEST(x)");
    ASSERT_TRUE(insert.ok()) << mode << ": " << insert.status().ToString();
    auto table = conn.Execute("SELECT * FROM t");
    ASSERT_TRUE(table.ok()) << mode;
    EXPECT_EQ(table->num_rows(), 2u) << mode;
    auto after = conn.Execute("SELECT * FROM v");
    ASSERT_TRUE(after.ok()) << mode << ": " << after.status().ToString();
    EXPECT_EQ(after->num_rows(), 2u) << mode;
  }
}

TEST_F(EngineCacheTest, FilteredQueriesShareTheWholeTableKeys) {
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  // A subquery-free WHERE is eligible in position mode: the whole-table
  // store is built once and the filter only narrows the candidate ids.
  auto r = conn_.Execute(
      "SELECT name FROM gear WHERE weight < 4 "
      "PREFERRING LOWEST(price) AND LOWEST(weight)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(conn_.last_stats().key_cache_eligible)
      << conn_.last_stats().key_cache_detail;
  EXPECT_FALSE(conn_.last_stats().key_cache_hit);

  // Shared with the unfiltered spelling of the same preference...
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  EXPECT_TRUE(conn_.last_stats().key_cache_hit)
      << conn_.last_stats().key_cache_detail;
  // ...and with a differently-filtered one.
  auto r2 = conn_.Execute(
      "SELECT name FROM gear WHERE weight < 3 "
      "PREFERRING LOWEST(price) AND LOWEST(weight)");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(conn_.last_stats().key_cache_hit)
      << conn_.last_stats().key_cache_detail;
}

// The key space of a key-cache miss follows the candidate count: a filter
// keeping fewer than half of the table's slots keys only its candidates and
// publishes nothing; a broader one keys (and publishes) the whole table.
class KeySpaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(GenerateUsedCars(conn_.database(), kRows).ok());
    ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  }

  static std::string Query(const std::string& where) {
    return "SELECT id, price, mileage FROM car " + where +
           " PREFERRING LOWEST(price) AND LOWEST(mileage)";
  }

  static constexpr size_t kRows = 2000;
  Connection conn_;
};

TEST_F(KeySpaceTest, SelectiveFilterKeysOnlyItsCandidates) {
  const std::string q = Query("WHERE id < 300");
  auto r = conn_.Execute(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const PreferenceQueryStats& stats = conn_.last_stats();
  EXPECT_TRUE(stats.key_cache_eligible) << stats.key_cache_detail;
  EXPECT_FALSE(stats.key_cache_hit);
  EXPECT_GT(stats.bmo_key_build_ns, 0u);
  EXPECT_EQ(stats.candidate_count, 300u);
  EXPECT_EQ(stats.key_cache_detail,
            "key cache: miss, keyed 300 of 2000 slots (candidates only, "
            "not published)");
  EXPECT_EQ(conn_.engine()->key_cache().size(), 0u);

  // Nothing was published, so the repeat keys its candidates again.
  auto again = conn_.Execute(q);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(conn_.last_stats().key_cache_hit);
  EXPECT_GT(conn_.last_stats().bmo_key_build_ns, 0u);
  EXPECT_EQ(conn_.engine()->key_cache().size(), 0u);
  EXPECT_EQ(again->ToString(), r->ToString());

  ASSERT_TRUE(conn_.Execute("SET key_cache = off").ok());
  auto uncached = conn_.Execute(q);
  ASSERT_TRUE(uncached.ok());
  EXPECT_FALSE(conn_.last_stats().key_cache_eligible);
  EXPECT_EQ(uncached->ToString(), r->ToString());
}

TEST_F(KeySpaceTest, HalfTheTableStillKeysAndPublishesTheWholeTable) {
  // 2n == key_rows sits on the whole-table side of the cut.
  auto r = conn_.Execute(Query("WHERE id >= 1000"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(conn_.last_stats().key_cache_hit);
  EXPECT_EQ(conn_.last_stats().candidate_count, 1000u);
  EXPECT_EQ(conn_.last_stats().key_cache_detail,
            "key cache: miss, keyed whole table (2000 slots), published");
  EXPECT_EQ(conn_.engine()->key_cache().size(), 1u);

  // The unfiltered spelling reuses the published store...
  ASSERT_TRUE(conn_.Execute(Query("")).ok());
  EXPECT_TRUE(conn_.last_stats().key_cache_hit)
      << conn_.last_stats().key_cache_detail;
  EXPECT_EQ(conn_.last_stats().bmo_key_build_ns, 0u);
  // ...and so does a selective filter, whose candidates are slots of it.
  auto selective = conn_.Execute(Query("WHERE id < 300"));
  ASSERT_TRUE(selective.ok());
  EXPECT_TRUE(conn_.last_stats().key_cache_hit)
      << conn_.last_stats().key_cache_detail;
  EXPECT_EQ(conn_.last_stats().key_cache_detail,
            "key cache: hit (2000 slots)");

  ASSERT_TRUE(conn_.Execute("SET key_cache = off").ok());
  auto uncached = conn_.Execute(Query("WHERE id < 300"));
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(uncached->ToString(), selective->ToString());
}

TEST_F(KeySpaceTest, OneCandidateShortOfHalfKeysOnlyTheCandidates) {
  auto r = conn_.Execute(Query("WHERE id > 1000"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(conn_.last_stats().candidate_count, 999u);
  EXPECT_EQ(conn_.last_stats().key_cache_detail,
            "key cache: miss, keyed 999 of 2000 slots (candidates only, "
            "not published)");
  EXPECT_EQ(conn_.engine()->key_cache().size(), 0u);
}

TEST_F(KeySpaceTest, UnfilteredRunsPublishOverAMostlyDeadHeap) {
  // Two full-table UPDATEs leave 6000 slots of which 2000 are live. A
  // filter over 1500 rows keys only its candidates, while the bare skyline
  // still keys the whole table and publishes it: its store and skyline
  // serve every repeat.
  ASSERT_TRUE(conn_.Execute("UPDATE car SET price = price + 1").ok());
  ASSERT_TRUE(conn_.Execute("UPDATE car SET price = price - 1").ok());
  auto filtered = conn_.Execute(Query("WHERE id < 1500"));
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_EQ(conn_.last_stats().key_cache_detail,
            "key cache: miss, keyed 1500 of 6000 slots (candidates only, "
            "not published)");
  ASSERT_TRUE(conn_.Execute("SET key_cache = off").ok());
  auto filtered_off = conn_.Execute(Query("WHERE id < 1500"));
  ASSERT_TRUE(filtered_off.ok());
  EXPECT_EQ(filtered->ToString(), filtered_off->ToString());

  ASSERT_TRUE(conn_.Execute("SET key_cache = on").ok());
  auto bare = conn_.Execute(Query(""));
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(conn_.last_stats().candidate_count, kRows);
  EXPECT_EQ(conn_.last_stats().key_cache_detail,
            "key cache: miss, keyed whole table (6000 slots), published");
  ASSERT_TRUE(conn_.Execute(Query("")).ok());
  EXPECT_TRUE(conn_.last_stats().skyline_cache_hit)
      << conn_.last_stats().skyline_cache_detail;
}

TEST_F(EngineCacheTest, CommutedComparisonsShareOneFilterEntry) {
  // The filter-position cache keys on a canonicalized predicate text:
  // `a < 4` and `4 > a` are one predicate and must share one entry.
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  auto r1 = conn_.Execute(
      "SELECT name FROM gear WHERE price < 200 PREFERRING LOWEST(weight)");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(conn_.engine()->filter_cache().size(), 1u);

  auto r2 = conn_.Execute(
      "SELECT name FROM gear WHERE 200 > price PREFERRING LOWEST(weight)");
  ASSERT_TRUE(r2.ok());
  // Served from the first spelling's entry — not inserted a second time.
  EXPECT_EQ(conn_.engine()->filter_cache().size(), 1u);
  EXPECT_EQ(r1->ToString(), r2->ToString());
}

TEST_F(EngineCacheTest, IneligibleShapesSkipTheKeyCache) {
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  // A subquery in the WHERE can read other tables: the candidate set is
  // not a pure function of (table id, table version) and must not be keyed.
  auto r = conn_.Execute(
      "SELECT name FROM gear WHERE weight < (SELECT 4) "
      "PREFERRING LOWEST(price) AND LOWEST(weight)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(conn_.last_stats().key_cache_eligible);
  EXPECT_FALSE(conn_.last_stats().key_cache_hit);
}

TEST_F(EngineCacheTest, CachesCanBeDisabledPerSession) {
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(conn_.Execute("SET plan_cache = off").ok());
  ASSERT_TRUE(conn_.Execute("SET key_cache = off").ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  ASSERT_TRUE(conn_.Execute(kQuery).ok());
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  EXPECT_FALSE(conn_.last_stats().key_cache_hit);
  EXPECT_FALSE(conn_.last_stats().key_cache_eligible);
}

TEST_F(EngineCacheTest, ExplainReportsCacheState) {
  ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
  auto plan = conn_.Execute("EXPLAIN " + kQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = plan->ToString();
  EXPECT_NE(text.find("key cache: eligible"), std::string::npos) << text;
  EXPECT_NE(text.find("plan cache: miss"), std::string::npos) << text;
  plan = conn_.Execute("EXPLAIN " + kQuery);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->ToString().find("plan cache: hit"), std::string::npos)
      << plan->ToString();
}

TEST(NormalizeSqlTest, CanonicalizesWhitespaceButNotCaseOrLiterals) {
  EXPECT_EQ(NormalizeSql("SELECT  *\nFROM T;"), "SELECT * FROM T");
  EXPECT_EQ(NormalizeSql("select 'A  B' from t"), "select 'A  B' from t");
  EXPECT_EQ(NormalizeSql("  select 1  "), "select 1");
  // Escaped quote inside a literal does not end the literal.
  EXPECT_EQ(NormalizeSql("select 'it''S'  FROM t"), "select 'it''S' FROM t");
}

TEST(NormalizeSqlTest, StripsLineCommentsAndKeepsQuotedIdentifiers) {
  // A comment must not glue the rest of its line into the statement when
  // the newline collapses — it is stripped, as the lexer strips it.
  EXPECT_EQ(NormalizeSql("SELECT a FROM t -- note\nWHERE b = 1"),
            "SELECT a FROM t WHERE b = 1");
  EXPECT_EQ(NormalizeSql("SELECT a FROM t -- note WHERE b = 1"),
            "SELECT a FROM t");
  // Whitespace inside quoted identifiers is significant.
  EXPECT_EQ(NormalizeSql("SELECT \"a  b\"  FROM t"),
            "SELECT \"a  b\" FROM t");
}

TEST(ParameterizeSqlTest, LiftsValuePositionLiteralsInOrder) {
  auto p = ParameterizeSql(
      "SELECT a FROM t WHERE b = 3 PREFERRING c AROUND 7.5 AND d IN "
      "('x', 'y')");
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text,
            "SELECT a FROM t WHERE b = ? PREFERRING c AROUND ? AND d IN "
            "(?, ?)");
  ASSERT_EQ(p.values.size(), 4u);
  EXPECT_EQ(p.values[0].AsInt(), 3);
  EXPECT_EQ(p.values[1].AsDouble(), 7.5);
  EXPECT_EQ(p.values[2].AsText(), "x");
  EXPECT_EQ(p.values[3].AsText(), "y");
}

TEST(ParameterizeSqlTest, KeepsStructuralAndDisplayLiterals) {
  // Select-list literals derive headers; OFFSET counts and ORDER BY
  // expressions are structural. LIMIT counts, in contrast, are liftable —
  // binding re-validates the count.
  auto p = ParameterizeSql(
      "SELECT 1, a FROM t WHERE b = 2 ORDER BY a LIMIT 5 OFFSET 2");
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text,
            "SELECT 1, a FROM t WHERE b = ? ORDER BY a LIMIT ? OFFSET 2");
  ASSERT_EQ(p.values.size(), 2u);
  EXPECT_EQ(p.values[0].AsInt(), 2);
  EXPECT_EQ(p.values[1].AsInt(), 5);
  // Nothing liftable at all -> fall back to plain normalization.
  EXPECT_FALSE(
      ParameterizeSql("SELECT 1, a FROM t ORDER BY a OFFSET 2")
          .parameterized);
}

TEST(ParameterizeSqlTest, LiftsBareLimitCount) {
  // A statement whose only literal is the LIMIT count still parameterizes:
  // `LIMIT 5` and `LIMIT 9` share one prepared plan.
  auto p = ParameterizeSql("SELECT 1, a FROM t LIMIT 5");
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text, "SELECT 1, a FROM t LIMIT ?");
  ASSERT_EQ(p.values.size(), 1u);
  EXPECT_EQ(p.values[0].AsInt(), 5);
}

TEST(ParameterizeSqlTest, FoldsUnaryMinusAndKeepsDates) {
  auto p = ParameterizeSql("SELECT a FROM t PREFERRING a AROUND -5");
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text, "SELECT a FROM t PREFERRING a AROUND ?");
  ASSERT_EQ(p.values.size(), 1u);
  EXPECT_EQ(p.values[0].AsInt(), -5);

  // Binary minus is arithmetic, not a sign.
  auto q = ParameterizeSql("SELECT a FROM t WHERE a - 5 > 2");
  ASSERT_TRUE(q.parameterized);
  EXPECT_EQ(q.text, "SELECT a FROM t WHERE a - ? > ?");

  auto d = ParameterizeSql(
      "SELECT a FROM t WHERE b = DATE '1999-07-03' AND c = 4");
  ASSERT_TRUE(d.parameterized);
  EXPECT_EQ(d.text,
            "SELECT a FROM t WHERE b = DATE '1999-07-03' AND c = ?");
}

TEST(ParameterizeSqlTest, ExplicitPlaceholdersDisable) {
  // Statements already carrying placeholders are their own canonical form;
  // the two placeholder spaces must not mix.
  EXPECT_FALSE(
      ParameterizeSql("SELECT a FROM t WHERE b = ? AND c = 3")
          .parameterized);
  EXPECT_FALSE(
      ParameterizeSql("SELECT a FROM t WHERE b = $x AND c = 3")
          .parameterized);
}

TEST(ParameterizeSqlTest, SubqueriesRestoreTheOuterClause) {
  auto p = ParameterizeSql(
      "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 4) AND e = 5");
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(
      p.text,
      "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = ?) AND e = ?");
  ASSERT_EQ(p.values.size(), 2u);
}

TEST(ParameterizeSqlTest, CollapsesInListsOnRequest) {
  // Arity normalization: a fully lifted IN list keys as one placeholder
  // whose width records the original member count.
  auto p = ParameterizeSql("SELECT a FROM t WHERE b IN (1, 2, 3) AND c = 4",
                           /*collapse_in_lists=*/true);
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text, "SELECT a FROM t WHERE b IN (?) AND c = ?");
  ASSERT_EQ(p.values.size(), 4u);
  ASSERT_EQ(p.widths.size(), 2u);
  EXPECT_EQ(p.widths[0], 3u);
  EXPECT_EQ(p.widths[1], 1u);

  // PREFERRING value sets collapse the same way.
  auto q = ParameterizeSql(
      "SELECT a FROM t PREFERRING b IN ('x', 'y') AND c AROUND 7",
      /*collapse_in_lists=*/true);
  ASSERT_TRUE(q.parameterized);
  EXPECT_EQ(q.text, "SELECT a FROM t PREFERRING b IN (?) AND c AROUND ?");
  ASSERT_EQ(q.widths.size(), 2u);
  EXPECT_EQ(q.widths[0], 2u);
  EXPECT_EQ(q.widths[1], 1u);

  // Without the flag the arity is preserved, one width per placeholder.
  auto r = ParameterizeSql("SELECT a FROM t WHERE b IN (1, 2, 3) AND c = 4");
  ASSERT_TRUE(r.parameterized);
  EXPECT_EQ(r.text, "SELECT a FROM t WHERE b IN (?, ?, ?) AND c = ?");
  EXPECT_EQ(r.widths, (std::vector<uint32_t>{1, 1, 1, 1}));
}

TEST(ParameterizeSqlTest, UnliftedInListMembersBlockCollapse) {
  // A member that did not lift (identifier, DATE literal, subquery) leaves
  // the whole list as rendered — partial collapse would misalign values.
  auto p = ParameterizeSql("SELECT a FROM t WHERE b IN (1, c, 3)",
                           /*collapse_in_lists=*/true);
  ASSERT_TRUE(p.parameterized);
  EXPECT_EQ(p.text, "SELECT a FROM t WHERE b IN (?, c, ?)");
  EXPECT_EQ(p.widths, (std::vector<uint32_t>{1, 1}));

  auto q = ParameterizeSql(
      "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 4) AND e = 5",
      /*collapse_in_lists=*/true);
  ASSERT_TRUE(q.parameterized);
  EXPECT_EQ(
      q.text,
      "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = ?) AND e = ?");
  EXPECT_EQ(q.widths, (std::vector<uint32_t>{1, 1}));
}

TEST_F(EngineCacheTest, InListArityVariantsShareOnePreparedPlan) {
  // The carried ROADMAP item: `IN (?, ?)` vs `IN (?, ?, ?)` used to occupy
  // two cache entries. With arity normalization every member count keys
  // onto one collapsed entry; binding re-expands the list per execution.
  auto r1 = conn_.Execute("SELECT name FROM gear WHERE price IN (120, 300)");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_FALSE(conn_.last_stats().plan_cache_hit);
  EXPECT_TRUE(conn_.last_stats().auto_parameterized);
  EXPECT_EQ(r1->num_rows(), 2u);  // tarp, tent

  auto r2 =
      conn_.Execute("SELECT name FROM gear WHERE price IN (120, 150, 180)");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);  // only the arity differs
  EXPECT_EQ(conn_.last_stats().bound_parameters, 3u);
  EXPECT_EQ(r2->num_rows(), 3u);  // tarp, bivy, hammock

  auto r3 = conn_.Execute("SELECT name FROM gear WHERE price IN (999)");
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  EXPECT_EQ(r3->num_rows(), 0u);
}

TEST_F(EngineCacheTest, InListWidthsKeepBoundPreferencesApart) {
  // Both statements collapse to `PREFERRING name IN (?) AND price IN (?)`
  // with the identical flat value vector ('tarp', 120, 150) — only the
  // width split differs. The per-plan compiled-preference memo must treat
  // them as distinct bindings or the second would run the first's sets.
  auto r1 = conn_.Execute(
      "SELECT name FROM gear PREFERRING name IN ('tarp') "
      "AND price IN (120, 150)");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  // tarp satisfies both POS sets and dominates everything else.
  ASSERT_EQ(r1->num_rows(), 1u);
  EXPECT_EQ(r1->at(0, 0).AsText(), "tarp");

  auto r2 = conn_.Execute(
      "SELECT name FROM gear PREFERRING name IN ('tarp', 120) "
      "AND price IN (150)");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(conn_.last_stats().plan_cache_hit);
  // tarp matches the name set, hammock (150) the price set: incomparable.
  EXPECT_EQ(r2->num_rows(), 2u);
}

TEST(PreferenceFingerprintTest, DistinguishesParametersAndStructure) {
  auto fp = [](const std::string& text) {
    auto term = ParsePreference(text);
    EXPECT_TRUE(term.ok()) << text;
    auto compiled = CompiledPreference::Compile(**term);
    EXPECT_TRUE(compiled.ok()) << text;
    return compiled->Fingerprint();
  };
  EXPECT_EQ(fp("price AROUND 40000"), fp("price AROUND 40000"));
  EXPECT_NE(fp("price AROUND 40000"), fp("price AROUND 39999"));
  EXPECT_NE(fp("price AROUND 40000"), fp("mileage AROUND 40000"));
  EXPECT_NE(fp("LOWEST(price)"), fp("HIGHEST(price)"));
  EXPECT_NE(fp("LOWEST(price)"), fp("DUAL(HIGHEST(price))"));
  EXPECT_NE(fp("LOWEST(a) AND LOWEST(b)"), fp("LOWEST(a) CASCADE LOWEST(b)"));
  EXPECT_NE(fp("LOWEST(a) AND LOWEST(b)"), fp("LOWEST(b) AND LOWEST(a)"));
  EXPECT_NE(fp("color IN ('red')"), fp("color IN ('red', 'blue')"));
  EXPECT_NE(fp("color IN ('red')"), fp("color NOT IN ('red')"));
  EXPECT_NE(
      fp("color EXPLICIT ('a' BETTER THAN 'b')"),
      fp("color EXPLICIT ('b' BETTER THAN 'a')"));
  EXPECT_NE(fp("price BETWEEN 10, 20"), fp("price BETWEEN 10, 30"));
  // Set values hash doubles bit-exactly, beyond %g's six digits.
  EXPECT_NE(fp("x IN (0.12345678)"), fp("x IN (0.12345679)"));
}

}  // namespace
}  // namespace prefsql
