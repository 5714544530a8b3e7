#include "core/connection.h"

#include <gtest/gtest.h>

#include "workload/generators.h"

namespace prefsql {
namespace {

TEST(ConnectionTest, StandardSqlPassesThrough) {
  Connection conn;
  ASSERT_TRUE(conn.ExecuteScript(
                       "CREATE TABLE t (x INTEGER);"
                       "INSERT INTO t VALUES (1), (2)")
                  .ok());
  auto r = conn.Execute("SELECT SUM(x) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->at(0, 0).AsInt(), 3);
  EXPECT_FALSE(conn.last_stats().was_preference_query);
}

TEST(ConnectionTest, PreferenceQueryViaRewriteByDefault) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto r = conn.Execute("SELECT ident FROM oldtimer PREFERRING age AROUND 40");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->at(0, 0).AsText(), "Selma");
  EXPECT_TRUE(conn.last_stats().was_preference_query);
  EXPECT_TRUE(conn.last_stats().used_rewrite);
  EXPECT_FALSE(conn.last_stats().rewrite_fallback);
  EXPECT_EQ(conn.last_stats().result_count, 1u);
}

TEST(ConnectionTest, AuxViewsAreCleanedUp) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  ASSERT_TRUE(
      conn.Execute("SELECT ident FROM oldtimer PREFERRING age AROUND 40")
          .ok());
  // No _prefsql_aux view remains.
  auto names = conn.database().catalog().TableNames();
  EXPECT_EQ(names.size(), 1u);
  EXPECT_FALSE(conn.database().catalog().HasView("_prefsql_aux_1"));
}

TEST(ConnectionTest, RewriteModeSelectPinsASnapshot) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  ASSERT_TRUE(
      conn.Execute("SELECT ident FROM oldtimer PREFERRING age AROUND 40")
          .ok());
  EXPECT_TRUE(conn.last_stats().used_rewrite);
  EXPECT_NE(conn.last_stats().pinned_epoch, 0u);
}

TEST(ConnectionTest, RewriteModeLeavesTheCatalogUntouched) {
  // The Aux relations are statement-local: no rewrite-mode SELECT creates
  // a catalog view or moves the catalog version, including the BUT ONLY
  // pre-filter relation and DISTANCE's scalar subquery over Aux.
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  ASSERT_TRUE(conn.Execute("SET but_only_mode = prefilter").ok());
  const Catalog& catalog = conn.database().catalog();
  const uint64_t version = catalog.version();
  const char* queries[] = {
      "SELECT ident FROM oldtimer PREFERRING age AROUND 40",
      "SELECT ident, DISTANCE(age) FROM oldtimer PREFERRING age AROUND 40",
      "SELECT ident FROM oldtimer PREFERRING age AROUND 40 "
      "BUT ONLY DISTANCE(age) <= 5",
      "SELECT ident FROM oldtimer PREFERRING color = 'red' AND "
      "LOWEST(age) BUT ONLY LEVEL(color) <= 1",
      "SELECT ident FROM oldtimer PREFERRING HIGHEST(age) GROUPING color",
  };
  for (int i = 0; i < 50; ++i) {
    const char* sql = queries[i % 5];
    auto r = conn.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    EXPECT_TRUE(conn.last_stats().used_rewrite) << sql;
    EXPECT_GT(r->num_rows(), 0u) << sql;
  }
  EXPECT_EQ(catalog.version(), version);
  EXPECT_EQ(catalog.TableNames().size(), 1u);
  EXPECT_FALSE(catalog.HasView("_prefsql_aux"));
  EXPECT_FALSE(catalog.HasView("_prefsql_aux_f"));
}

// Removed knobs are rejected as unknown: Aux relations are statement-local,
// operators pull batches only, and PREFSQL_SIMD is the one SIMD override.
TEST(ConnectionTest, RemovedKnobsAreUnknown) {
  Connection conn;
  for (const char* knob : {"keep_aux_views", "vectorized_execution", "simd"}) {
    auto r = conn.Execute(std::string("SET ") + knob + " = off");
    ASSERT_FALSE(r.ok()) << knob;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    EXPECT_NE(r.status().message().find("unknown setting"),
              std::string::npos)
        << knob;
  }
}

// Every SET knob: its accepted spellings, the echoed effective value,
// reset to the default, and whether it keys the plan cache (a changed
// fingerprinted knob never shares a preparation).
TEST(ConnectionTest, SetKnobsParseEchoAndResetFromOneTable) {
  struct Case {
    const char* knob;
    const char* value;
    const char* echo;
    const char* default_echo;
    bool keys_plan;
  };
  const Case cases[] = {
      {"evaluation_mode", "'SFS'", "sfs", "rewrite", true},
      {"bmo_algorithm", "'less'", "less", "default", true},
      {"bmo_threads", "3", "3", "0", true},
      {"parallel_min_rows", "17", "17", "4096", true},
      {"preference_pushdown", "off", "off", "on", true},
      {"bnl_window", "64", "64", "0", true},
      {"but_only_mode", "prefilter", "prefilter", "postfilter", true},
      {"plan_cache", "false", "off", "on", false},
      {"auto_parameterize", "0", "off", "on", false},
      {"key_cache", "'OFF'", "off", "on", true},
      {"skyline_cache", "FALSE", "off", "on", true},
      {"mvcc_gc", "0", "off", "on", true},
      {"mvcc_gc_background", "off", "off", "on", false},
      {"statement_timeout_ms", "60000", "60000", "0", false},
      {"statement_memory_bytes", "1000000000", "1000000000", "0", false},
      {"engine_memory_bytes", "2000000000", "2000000000", "0", false},
  };
  const std::string query = "SELECT ident FROM oldtimer PREFERRING LOWEST(age)";
  for (const Case& c : cases) {
    Connection conn;
    ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
    auto echo = [&](const std::string& value) {
      auto r = conn.Execute(std::string("SET ") + c.knob + " = " + value);
      EXPECT_TRUE(r.ok()) << c.knob << ": " << r.status().ToString();
      if (!r.ok() || r->num_rows() != 1) return std::string();
      EXPECT_EQ(r->at(0, 0).AsText(), c.knob);
      return r->at(0, 1).AsText();
    };
    ASSERT_TRUE(conn.Execute(query).ok());
    EXPECT_EQ(echo(c.value), c.echo) << c.knob;
    ASSERT_TRUE(conn.Execute(query).ok()) << c.knob;
    // plan_cache and auto_parameterize change whether (and under which
    // text) the statement is cached at all, so only the others report a
    // hit exactly when the knob is not part of the fingerprint.
    if (std::string(c.knob) != "plan_cache" &&
        std::string(c.knob) != "auto_parameterize") {
      EXPECT_EQ(conn.last_stats().plan_cache_hit, !c.keys_plan) << c.knob;
    }
    EXPECT_EQ(echo("DEFAULT"), c.default_echo) << c.knob;
    EXPECT_EQ(echo(c.value), c.echo) << c.knob;
    EXPECT_EQ(echo("'Default'"), c.default_echo) << c.knob;
  }
}

TEST(ConnectionTest, SetKnobsRejectBadValues) {
  Connection conn;
  auto error = [&](const std::string& stmt) {
    auto r = conn.Execute(stmt);
    EXPECT_FALSE(r.ok()) << stmt;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    return r.status().message();
  };
  EXPECT_EQ(error("SET bmo_threads = 2.5"),
            "SET bmo_threads expects a non-negative integer");
  EXPECT_EQ(error("SET statement_timeout_ms = 'soon'"),
            "SET statement_timeout_ms expects a non-negative integer");
  EXPECT_EQ(error("SET key_cache = 'maybe'"),
            "SET key_cache expects on or off");
  EXPECT_EQ(error("SET evaluation_mode = 'fast'"),
            "SET evaluation_mode expects rewrite, bnl, naive or sfs");
  EXPECT_EQ(error("SET evaluation_mode = 3"),
            "SET evaluation_mode expects rewrite, bnl, naive or sfs");
  EXPECT_EQ(error("SET bmo_algorithm = 3"),
            "SET bmo_algorithm expects naive, bnl, sfs, less or default");
  EXPECT_NE(error("SET bmo_algorithm = 'quick'").find("unknown BMO algorithm"),
            std::string::npos);
  EXPECT_EQ(error("SET but_only_mode = 'sideways'"),
            "SET but_only_mode expects prefilter or postfilter");
  EXPECT_EQ(error("SET Warp_Speed = 9"),
            "unknown setting 'Warp_Speed' (known: evaluation_mode, "
            "bmo_algorithm, bmo_threads, parallel_min_rows, "
            "preference_pushdown, bnl_window, but_only_mode, plan_cache, "
            "auto_parameterize, key_cache, skyline_cache, mvcc_gc, "
            "mvcc_gc_background, statement_timeout_ms, "
            "statement_memory_bytes, engine_memory_bytes)");
  // The engine-wide knobs reach the engine, not only the session.
  ASSERT_TRUE(conn.Execute("SET engine_memory_bytes = 123456789").ok());
  EXPECT_EQ(conn.engine()->memory_budget().limit(), 123456789u);
  ASSERT_TRUE(conn.Execute("SET engine_memory_bytes = DEFAULT").ok());
  EXPECT_EQ(conn.engine()->memory_budget().limit(), 0u);
}

TEST(ConnectionTest, NonRewritableExplicitFallsBackToBnl) {
  Connection conn;
  ASSERT_TRUE(conn.ExecuteScript(
                       "CREATE TABLE t (c TEXT);"
                       "INSERT INTO t VALUES ('a'), ('b'), ('x'), ('y'), "
                       "('other')")
                  .ok());
  auto r = conn.Execute(
      "SELECT c FROM t PREFERRING c EXPLICIT ('a' BETTER THAN 'b', "
      "'x' BETTER THAN 'y') ORDER BY c");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->at(0, 0).AsText(), "a");
  EXPECT_EQ(r->at(1, 0).AsText(), "x");
  EXPECT_TRUE(conn.last_stats().rewrite_fallback);
  EXPECT_FALSE(conn.last_stats().used_rewrite);
}

// INSERT ... SELECT PREFERRING (§2.2.5) reports the statistics of its
// preference evaluation exactly as the equivalent SELECT does. Each side
// runs on a fresh engine, so both meet the same (cold) caches.
TEST(ConnectionTest, InsertPreferringReportsTheSelectStats) {
  const char* kQueries[] = {
      "SELECT id, price, mileage FROM car WHERE price < 30000 "
      "PREFERRING LOWEST(mileage) AND HIGHEST(power)",
      "SELECT id, price, mileage FROM car "
      "PREFERRING LOWEST(mileage) AND price AROUND 15000",
  };
  for (const char* query : kQueries) {
    ConnectionOptions opts;
    opts.mode = EvaluationMode::kBlockNestedLoop;
    Connection select_conn(opts);
    Connection insert_conn(opts);
    ASSERT_TRUE(GenerateUsedCars(select_conn.database(), 500, 11).ok());
    ASSERT_TRUE(GenerateUsedCars(insert_conn.database(), 500, 11).ok());
    ASSERT_TRUE(insert_conn
                    .Execute("CREATE TABLE shortlist (id INTEGER, "
                             "price INTEGER, mileage INTEGER)")
                    .ok());
    auto selected = select_conn.Execute(query);
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    auto inserted =
        insert_conn.Execute(std::string("INSERT INTO shortlist ") + query);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    const PreferenceQueryStats& want = select_conn.last_stats();
    const PreferenceQueryStats& got = insert_conn.last_stats();
    EXPECT_TRUE(got.was_preference_query) << query;
    EXPECT_EQ(got.was_preference_query, want.was_preference_query) << query;
    EXPECT_EQ(got.candidate_count, want.candidate_count) << query;
    EXPECT_EQ(got.result_count, want.result_count) << query;
    EXPECT_EQ(got.result_count, selected->num_rows()) << query;
    EXPECT_EQ(got.bmo_comparisons, want.bmo_comparisons) << query;
    EXPECT_GT(got.bmo_comparisons, 0u) << query;
    EXPECT_EQ(got.bmo_algorithm, want.bmo_algorithm) << query;
    EXPECT_EQ(got.bmo_algorithm, "block-nested-loop") << query;
    EXPECT_EQ(got.key_cache_detail, want.key_cache_detail) << query;
    EXPECT_FALSE(got.key_cache_detail.empty()) << query;
  }
}

TEST(ConnectionTest, InsertPreferringReportsRewriteAndFallback) {
  Connection conn;  // rewrite mode
  ASSERT_TRUE(conn.ExecuteScript(
                       "CREATE TABLE t (c TEXT, n INTEGER);"
                       "INSERT INTO t VALUES ('a', 1), ('b', 2), ('x', 3), "
                       "('y', 4), ('other', 5);"
                       "CREATE TABLE dst (c TEXT, n INTEGER)")
                  .ok());
  ASSERT_TRUE(
      conn.Execute("INSERT INTO dst SELECT * FROM t PREFERRING LOWEST(n)")
          .ok());
  EXPECT_TRUE(conn.last_stats().was_preference_query);
  EXPECT_TRUE(conn.last_stats().used_rewrite);
  EXPECT_FALSE(conn.last_stats().rewrite_fallback);
  EXPECT_EQ(conn.last_stats().result_count, 1u);
  // A non-weak-order EXPLICIT is refused by the rewriter and evaluated
  // in-engine instead.
  ASSERT_TRUE(conn.Execute("INSERT INTO dst SELECT * FROM t PREFERRING c "
                           "EXPLICIT ('a' BETTER THAN 'b', "
                           "'x' BETTER THAN 'y')")
                  .ok());
  EXPECT_TRUE(conn.last_stats().was_preference_query);
  EXPECT_FALSE(conn.last_stats().used_rewrite);
  EXPECT_TRUE(conn.last_stats().rewrite_fallback);
  EXPECT_EQ(conn.last_stats().bmo_algorithm, "block-nested-loop");
  EXPECT_EQ(conn.last_stats().result_count, 2u);
  auto rows = conn.Execute("SELECT COUNT(*) FROM dst");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->at(0, 0).AsInt(), 3);
}

// When the rewriter refuses, EXPLAIN names the algorithm the in-engine
// fallback actually runs, which follows the bmo_algorithm knob.
TEST(ConnectionTest, ExplainNamesTheFallbackAlgorithm) {
  Connection conn;  // rewrite mode
  ASSERT_TRUE(conn.ExecuteScript(
                       "CREATE TABLE t (c TEXT);"
                       "INSERT INTO t VALUES ('red'), ('green'), ('blue')")
                  .ok());
  const std::string query =
      "SELECT c FROM t PREFERRING c EXPLICIT ('red' BETTER THAN 'blue', "
      "'green' BETTER THAN 'blue')";
  auto first_line = [&]() {
    auto plan = conn.Execute("EXPLAIN " + query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() && plan->num_rows() > 0 ? plan->at(0, 0).AsText()
                                             : std::string();
  };
  EXPECT_NE(first_line().find("in-engine (block-nested-loop)"),
            std::string::npos);
  ASSERT_TRUE(conn.Execute("SET bmo_algorithm = less").ok());
  const std::string line = first_line();
  EXPECT_NE(line.find("in-engine (less)"), std::string::npos) << line;
  ASSERT_TRUE(conn.Execute(query).ok());
  EXPECT_TRUE(conn.last_stats().rewrite_fallback);
  EXPECT_EQ(conn.last_stats().bmo_algorithm, "less");
}

TEST(ConnectionTest, RewriteToSqlProducesRunnableScript) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto script = conn.RewriteToSql(
      "SELECT * FROM oldtimer PREFERRING color = 'white' ELSE "
      "color = 'yellow' AND age AROUND 40");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_NE(script->find("CREATE VIEW Aux"), std::string::npos);
  EXPECT_NE(script->find("NOT EXISTS"), std::string::npos);
  EXPECT_NE(script->find("DROP VIEW Aux"), std::string::npos);
  // The script itself runs on the plain engine and produces the BMO rows.
  auto result = conn.database().ExecuteScript(
      script->substr(0, script->rfind("DROP VIEW")));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 3u);
}

TEST(ConnectionTest, RewriteToSqlRejectsPlainQueries) {
  Connection conn;
  EXPECT_TRUE(conn.RewriteToSql("SELECT 1").status().IsInvalidArgument());
}

TEST(ConnectionTest, AllModesAgreeOnUsedCars) {
  // Cross-mode equivalence on a richer generated dataset.
  std::vector<std::vector<std::string>> results;
  for (EvaluationMode mode :
       {EvaluationMode::kRewrite, EvaluationMode::kBlockNestedLoop,
        EvaluationMode::kNaiveNestedLoop,
        EvaluationMode::kSortFilterSkyline}) {
    ConnectionOptions opts;
    opts.mode = mode;
    Connection conn(opts);
    ASSERT_TRUE(GenerateUsedCars(conn.database(), 500, 11).ok());
    auto r = conn.Execute(
        "SELECT id FROM car WHERE price < 30000 "
        "PREFERRING LOWEST(mileage) AND HIGHEST(power) AND price AROUND "
        "15000 ORDER BY id");
    ASSERT_TRUE(r.ok()) << EvaluationModeToString(mode) << ": "
                        << r.status().ToString();
    std::vector<std::string> ids;
    for (size_t i = 0; i < r->num_rows(); ++i) ids.push_back(r->RowToString(i));
    results.push_back(std::move(ids));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "mode " << i << " differs";
  }
  EXPECT_FALSE(results[0].empty());
}

TEST(ConnectionTest, EmptyWhereResultYieldsEmptyBmo) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto r = conn.Execute(
      "SELECT * FROM oldtimer WHERE age > 1000 PREFERRING LOWEST(age)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
}

TEST(ConnectionTest, PreferenceOnlyAppliesToWhereSurvivors) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  // Global optimum (age 40) is excluded by WHERE; BMO comes from the rest.
  auto r = conn.Execute(
      "SELECT ident FROM oldtimer WHERE age < 40 PREFERRING age AROUND 40");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->at(0, 0).AsText(), "Homer");  // 35 is closest below 40
}

TEST(ConnectionTest, SubqueryInWhereWithPreferring) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto r = conn.Execute(
      "SELECT ident FROM oldtimer WHERE age < (SELECT MAX(age) FROM "
      "oldtimer) PREFERRING HIGHEST(age)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->at(0, 0).AsText(), "Smithers");  // 43, below max 51
}

TEST(ConnectionTest, OrderByAndLimitApplyAfterBmo) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto r = conn.Execute(
      "SELECT ident, age FROM oldtimer PREFERRING color IN ('red', "
      "'yellow') ORDER BY age DESC LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->at(0, 0).AsText(), "Skinner");   // 51
  EXPECT_EQ(r->at(1, 0).AsText(), "Smithers");  // 43
}

TEST(ConnectionTest, DistinctOnPreferenceResult) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  auto r = conn.Execute(
      "SELECT DISTINCT color FROM oldtimer PREFERRING LOWEST(age)");
  ASSERT_TRUE(r.ok());
  // Min age 19: Maggie (white) and Bart (green) -> two distinct colors.
  EXPECT_EQ(r->num_rows(), 2u);
}

TEST(ConnectionTest, ErrorsFromPreferenceLayer) {
  Connection conn;
  ASSERT_TRUE(conn.Execute("CREATE TABLE t (x INTEGER)").ok());
  EXPECT_TRUE(conn.Execute("SELECT * FROM t PREFERRING LOWEST(zzz)")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(conn.Execute("SELECT * FROM nosuch PREFERRING LOWEST(x)")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(conn.Execute(
                      "SELECT * FROM t PREFERRING x EXPLICIT ("
                      "'a' BETTER THAN 'b', 'b' BETTER THAN 'a')")
                  .status()
                  .IsInvalidArgument());  // cycle
}

TEST(ConnectionTest, SequentialPreferenceQueriesGetFreshAuxNames) {
  Connection conn;
  ASSERT_TRUE(LoadOldtimer(conn.database()).ok());
  for (int i = 0; i < 3; ++i) {
    auto r =
        conn.Execute("SELECT ident FROM oldtimer PREFERRING LOWEST(age)");
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
    EXPECT_EQ(r->num_rows(), 2u);
  }
}

}  // namespace
}  // namespace prefsql
