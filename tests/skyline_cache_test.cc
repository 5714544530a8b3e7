// The incrementally-maintained skyline result cache:
//   * a bare-table PREFERRING query publishes its maximal-position list into
//     the engine cache and a repeat query is served from it (no key build,
//     no dominance pass);
//   * DML carries the entry to the new table version instead of discarding
//     it — appended rows are dominance-tested against the cached skyline,
//     end-stamping a non-member changes nothing, end-stamping a member
//     invalidates — and the served results stay exactly equal to a
//     from-scratch recompute under random DML interleavings, also while a
//     cursor holds the pre-DML snapshot;
//   * the carried entry's keys extend the published store in place
//     (KeyStore::Extend): the published rows stay bit-identical, a rival
//     extension of the same base copies, and a reader of the old store
//     races no writer (run under TSan).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/connection.h"
#include "preference/key_store.h"
#include "util/random.h"

namespace prefsql {
namespace {

std::vector<std::string> Column0(const ResultTable& t) {
  std::vector<std::string> out;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    out.push_back(t.at(i, 0).ToString());
  }
  return out;
}

class SkylineCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The caches live on the direct evaluation path; rewrite mode (the
    // default) recomputes via plain SQL and never consults them.
    ASSERT_TRUE(conn_.Execute("SET evaluation_mode = bnl").ok());
    ASSERT_TRUE(conn_.ExecuteScript(
                         "CREATE TABLE gear (name TEXT, price INTEGER, "
                         "weight INTEGER);"
                         "INSERT INTO gear VALUES ('tent', 300, 4), "
                         "('tarp', 120, 2), ('bivy', 180, 1), "
                         "('hammock', 150, 2)")
                    .ok());
  }

  // One bare skyline run publishes keys + positions into the engine cache.
  // Seed skyline: tarp (120, 2) and bivy (180, 1); hammock is dominated by
  // tarp and tent by everything.
  void Warm() {
    auto r = conn_.Execute(kQuery);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  std::vector<std::string> Query(bool expect_served) {
    auto r = conn_.Execute(kQuery);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(conn_.last_stats().skyline_cache_hit, expect_served)
        << conn_.last_stats().skyline_cache_detail;
    return r.ok() ? Column0(*r) : std::vector<std::string>{};
  }

  Connection conn_;
  const std::string kQuery =
      "SELECT name FROM gear PREFERRING LOWEST(price) AND LOWEST(weight)";
};

TEST_F(SkylineCacheTest, RepeatQueryIsServedFromTheCachedPositions) {
  Warm();
  EXPECT_FALSE(conn_.last_stats().skyline_cache_hit)
      << conn_.last_stats().skyline_cache_detail;
  std::vector<std::string> served = Query(/*expect_served=*/true);
  EXPECT_EQ(served, (std::vector<std::string>{"tarp", "bivy"}));
  // Served without a key build or a single dominance comparison.
  EXPECT_EQ(conn_.last_stats().bmo_key_build_ns, 0u);
  EXPECT_EQ(conn_.last_stats().bmo_comparisons, 0u);
  EXPECT_TRUE(conn_.last_stats().key_cache_hit);
}

TEST_F(SkylineCacheTest, InsertOfDominatedRowMaintainsTheEntry) {
  Warm();
  ASSERT_TRUE(
      conn_.Execute("INSERT INTO gear VALUES ('brick', 500, 9)").ok());
  EXPECT_GT(conn_.last_stats().skyline_maintenance_events, 0u);
  EXPECT_EQ(Query(/*expect_served=*/true),
            (std::vector<std::string>{"tarp", "bivy"}));
}

TEST_F(SkylineCacheTest, InsertOfDominatorEvictsTheBeatenMembers) {
  Warm();
  ASSERT_TRUE(
      conn_.Execute("INSERT INTO gear VALUES ('quilt', 100, 1)").ok());
  EXPECT_GT(conn_.last_stats().skyline_maintenance_events, 0u);
  EXPECT_EQ(Query(/*expect_served=*/true),
            (std::vector<std::string>{"quilt"}));
}

TEST_F(SkylineCacheTest, DeleteOfNonMemberKeepsTheEntry) {
  Warm();
  // tent is a dominated non-member: end-stamping it changes no member.
  ASSERT_TRUE(conn_.Execute("DELETE FROM gear WHERE name = 'tent'").ok());
  EXPECT_GT(conn_.last_stats().skyline_maintenance_events, 0u);
  EXPECT_EQ(Query(/*expect_served=*/true),
            (std::vector<std::string>{"tarp", "bivy"}));
}

TEST_F(SkylineCacheTest, DeleteOfMemberInvalidatesTheEntry) {
  Warm();
  ASSERT_TRUE(conn_.Execute("DELETE FROM gear WHERE name = 'tarp'").ok());
  EXPECT_GT(conn_.last_stats().skyline_invalidations, 0u);
  // Correct recompute: hammock resurfaces once its dominator is gone.
  EXPECT_EQ(Query(/*expect_served=*/false),
            (std::vector<std::string>{"bivy", "hammock"}));
  // The recompute republished: the next repeat is served again.
  EXPECT_EQ(Query(/*expect_served=*/true),
            (std::vector<std::string>{"bivy", "hammock"}));
}

TEST_F(SkylineCacheTest, UpdateOfNonMemberReAdmitsIt) {
  Warm();
  // hammock (150, 2) was dominated by tarp; at (90, 2) it dominates tarp.
  ASSERT_TRUE(
      conn_.Execute("UPDATE gear SET price = 90 WHERE name = 'hammock'")
          .ok());
  EXPECT_GT(conn_.last_stats().skyline_maintenance_events, 0u);
  EXPECT_EQ(Query(/*expect_served=*/true),
            (std::vector<std::string>{"bivy", "hammock"}));
}

TEST_F(SkylineCacheTest, UpdateOfMemberInvalidatesTheEntry) {
  Warm();
  ASSERT_TRUE(
      conn_.Execute("UPDATE gear SET price = 500 WHERE name = 'tarp'").ok());
  EXPECT_GT(conn_.last_stats().skyline_invalidations, 0u);
  EXPECT_EQ(Query(/*expect_served=*/false),
            (std::vector<std::string>{"bivy", "hammock"}));
}

TEST_F(SkylineCacheTest, ServingCanBeDisabledPerSession) {
  ASSERT_TRUE(conn_.Execute("SET skyline_cache = off").ok());
  Warm();
  auto r = conn_.Execute(kQuery);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(conn_.last_stats().skyline_cache_hit)
      << conn_.last_stats().skyline_cache_detail;
  // The packed keys are still shared — only position serving is off.
  EXPECT_TRUE(conn_.last_stats().key_cache_hit);
}

// Regression for transient double-residency: maintenance used to insert the
// carried entry under the new version key and leave the superseded entry to
// the sweep, so every DML statement briefly held two residents per query.
// With no reader pinned to the old version, the entry must be re-keyed in
// place — peak residency stays at exactly one entry and the move counts no
// eviction, across a whole chain of maintained DML.
TEST_F(SkylineCacheTest, MaintenanceMovesTheEntryWithoutDoubleResidency) {
  Warm();
  ASSERT_EQ(conn_.engine()->key_cache().size(), 1u);
  const char* dml[] = {
      "INSERT INTO gear VALUES ('brick', 500, 9)",
      "DELETE FROM gear WHERE name = 'tent'",
      "INSERT INTO gear VALUES ('anvil', 600, 30)",
      "UPDATE gear SET weight = 12 WHERE name = 'brick'",
      "INSERT INTO gear VALUES ('stone', 400, 8)",
  };
  for (const char* stmt : dml) {
    ASSERT_TRUE(conn_.Execute(stmt).ok()) << stmt;
    EXPECT_GT(conn_.last_stats().skyline_maintenance_events, 0u) << stmt;
    EXPECT_EQ(conn_.engine()->key_cache().size(), 1u) << stmt;
    EXPECT_EQ(conn_.last_stats().key_cache_evictions, 0u) << stmt;
    EXPECT_EQ(Query(/*expect_served=*/true),
              (std::vector<std::string>{"tarp", "bivy"}))
        << stmt;
  }
}

// Property: under random INSERT / DELETE / UPDATE interleavings, the
// (possibly maintained-and-served) skyline equals a from-scratch recompute
// by an uncached session on the same engine, at every step.
TEST(SkylineCachePropertyTest, RandomDmlInterleavingsMatchRecompute) {
  for (uint64_t seed : {3u, 17u, 91u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    Connection cached;
    Connection oracle;
    oracle.Attach(cached.engine());
    ASSERT_TRUE(cached.Execute("SET evaluation_mode = bnl").ok());
    // The oracle session recomputes everything from the table rows.
    ASSERT_TRUE(oracle.Execute("SET evaluation_mode = bnl").ok());
    ASSERT_TRUE(oracle.Execute("SET skyline_cache = off").ok());
    ASSERT_TRUE(oracle.Execute("SET key_cache = off").ok());

    ASSERT_TRUE(cached
                    .Execute("CREATE TABLE pts (id INTEGER, x INTEGER, "
                             "y INTEGER)")
                    .ok());
    int64_t next_id = 0;
    auto insert = [&]() {
      auto r = cached.Execute(
          "INSERT INTO pts VALUES (" + std::to_string(next_id++) + ", " +
          std::to_string(rng.Uniform(0, 20)) + ", " +
          std::to_string(rng.Uniform(0, 20)) + ")");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    };
    for (int i = 0; i < 30; ++i) insert();

    const std::string q =
        "SELECT id FROM pts PREFERRING LOWEST(x) AND LOWEST(y)";
    bool saw_served = false;
    for (int step = 0; step < 60; ++step) {
      // Query first so the cache is warm when the mutation lands.
      ASSERT_TRUE(cached.Execute(q).ok());
      std::string target = std::to_string(rng.Uniform(0, next_id));
      switch (rng.Uniform(0, 2)) {
        case 0:
          insert();
          break;
        case 1:
          ASSERT_TRUE(
              cached.Execute("DELETE FROM pts WHERE id = " + target).ok());
          break;
        default:
          ASSERT_TRUE(cached
                          .Execute("UPDATE pts SET x = " +
                                   std::to_string(rng.Uniform(0, 20)) +
                                   ", y = " +
                                   std::to_string(rng.Uniform(0, 20)) +
                                   " WHERE id = " + target)
                          .ok());
          break;
      }
      auto maintained = cached.Execute(q);
      ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
      saw_served |= cached.last_stats().skyline_cache_hit;
      auto recomputed = oracle.Execute(q);
      ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();

      std::vector<std::string> got = Column0(*maintained);
      std::vector<std::string> want = Column0(*recomputed);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "step " << step;
    }
    EXPECT_TRUE(saw_served);
    EXPECT_GT(cached.last_stats().skyline_maintenance_events, 0u);
    EXPECT_GT(cached.last_stats().skyline_invalidations, 0u);
  }
}

// A reader session keeps running the query over the cached keys (skyline
// serving off, so every run reads the whole published store in the BMO)
// while a writer session inserts dominated rows, each of which extends
// that store in place. Results stay exact; TSan sees no race between the
// reader's rows and the writer's appended rows.
TEST_F(SkylineCacheTest, ReaderOfTheOldEntryRunsWhileWritesExtendIt) {
  Warm();
  Connection reader;
  reader.Attach(conn_.engine());
  ASSERT_TRUE(reader.Execute("SET evaluation_mode = bnl").ok());
  ASSERT_TRUE(reader.Execute("SET skyline_cache = off").ok());
  std::atomic<bool> writing{true};
  auto writes = std::async(std::launch::async, [&] {
    Connection writer;
    writer.Attach(conn_.engine());
    Status st;
    for (int i = 0; i < 150 && st.ok(); ++i) {
      st = writer
               .Execute("INSERT INTO gear VALUES ('rock" + std::to_string(i) +
                        "', " + std::to_string(400 + i) + ", 9)")
               .status();
    }
    writing = false;
    return st;
  });
  int runs = 0;
  bool key_hit = false;
  do {
    auto r = reader.Execute(kQuery);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Column0(*r), (std::vector<std::string>{"tarp", "bivy"}));
    key_hit |= reader.last_stats().key_cache_hit;
    ++runs;
  } while (writing);
  ASSERT_TRUE(writes.get().ok());
  EXPECT_GT(runs, 0);
  EXPECT_TRUE(key_hit);
  EXPECT_EQ(Query(/*expect_served=*/true),
            (std::vector<std::string>{"tarp", "bivy"}));
}

// Property: under random INSERT / DELETE / UPDATE interleavings, the
// (possibly maintained-and-served) skyline equals a from-scratch recompute
// by an uncached session on the same engine, at every step — here with a
// cursor opened before each write and drained after it, so the write
// extends the entry while the pre-DML snapshot (and its entry) is pinned.
// Both snapshots must match their recompute.
TEST(SkylineCachePropertyTest, PinnedSnapshotAndMaintainedEntryMatchRecompute) {
  for (uint64_t seed : {5u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    auto engine = std::make_shared<Engine>();
    Connection cached;
    Connection pinned;
    Connection oracle;
    cached.Attach(engine);
    pinned.Attach(engine);
    oracle.Attach(engine);
    ASSERT_TRUE(cached.Execute("SET evaluation_mode = bnl").ok());
    ASSERT_TRUE(pinned.Execute("SET evaluation_mode = bnl").ok());
    ASSERT_TRUE(oracle.Execute("SET evaluation_mode = bnl").ok());
    ASSERT_TRUE(oracle.Execute("SET skyline_cache = off").ok());
    ASSERT_TRUE(oracle.Execute("SET key_cache = off").ok());
    ASSERT_TRUE(cached
                    .Execute("CREATE TABLE pts (id INTEGER, x INTEGER, "
                             "y INTEGER)")
                    .ok());
    int64_t next_id = 0;
    auto insert_sql = [&]() {
      return "INSERT INTO pts VALUES (" + std::to_string(next_id++) + ", " +
             std::to_string(rng.Uniform(0, 20)) + ", " +
             std::to_string(rng.Uniform(0, 20)) + ")";
    };
    for (int i = 0; i < 30; ++i) ASSERT_TRUE(cached.Execute(insert_sql()).ok());

    const std::string q =
        "SELECT id FROM pts PREFERRING LOWEST(x) AND LOWEST(y)";
    auto sorted_ids = [](const ResultTable& t) {
      std::vector<std::string> ids = Column0(t);
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    for (int step = 0; step < 40; ++step) {
      ASSERT_TRUE(cached.Execute(q).ok());  // warm the pre-DML entry
      auto want_before = oracle.Execute(q);
      ASSERT_TRUE(want_before.ok());
      auto cursor = pinned.OpenCursor(q);
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

      std::string target = std::to_string(rng.Uniform(0, next_id));
      std::string dml;
      switch (rng.Uniform(0, 2)) {
        case 0:
          dml = insert_sql();
          break;
        case 1:
          dml = "DELETE FROM pts WHERE id = " + target;
          break;
        default:
          dml = "UPDATE pts SET x = " + std::to_string(rng.Uniform(0, 20)) +
                ", y = " + std::to_string(rng.Uniform(0, 20)) +
                " WHERE id = " + target;
          break;
      }
      // The open cursor holds the engine's shared lock on this thread, so
      // the write runs on another one.
      auto write = std::async(std::launch::async, [&cached, &dml] {
        return cached.Execute(dml).status();
      });
      ASSERT_EQ(write.wait_for(std::chrono::seconds(10)),
                std::future_status::ready);
      ASSERT_TRUE(write.get().ok()) << dml;

      std::vector<std::string> streamed;
      for (;;) {
        auto row = cursor->Next();
        ASSERT_TRUE(row.ok()) << row.status().ToString();
        if (!row->has_value()) break;
        streamed.push_back((**row).row()[0].ToString());
      }
      std::sort(streamed.begin(), streamed.end());
      ASSERT_EQ(streamed, sorted_ids(*want_before)) << "step " << step;

      auto maintained = cached.Execute(q);
      ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
      auto recomputed = oracle.Execute(q);
      ASSERT_TRUE(recomputed.ok());
      ASSERT_EQ(sorted_ids(*maintained), sorted_ids(*recomputed))
          << "step " << step << ": " << dml;
    }
    EXPECT_GT(cached.last_stats().skyline_maintenance_events, 0u);
  }
}

// Two-leaf keys of row r: scores (r, -r), explicit ids (r, r + 1).
std::vector<LeafKey> KeyOf(double r) {
  return {{r, static_cast<int32_t>(r)}, {-r, static_cast<int32_t>(r) + 1}};
}

// A published-style store of `rows` keys with `headroom` spare rows.
KeyStore MakeStore(size_t rows, size_t headroom) {
  KeyStore store(2);
  store.Reserve(rows + headroom);
  for (size_t r = 0; r < rows; ++r) store.Append(KeyOf(static_cast<double>(r)));
  return store;
}

// Byte image of a store's packed rows.
std::vector<char> Image(const KeyStore& s) {
  const size_t leaves = s.size() * s.num_leaves();
  std::vector<char> out(leaves * (sizeof(double) + sizeof(int32_t)));
  if (leaves == 0) return out;
  std::memcpy(out.data(), s.scores(0), leaves * sizeof(double));
  std::memcpy(out.data() + leaves * sizeof(double), s.ids(0),
              leaves * sizeof(int32_t));
  return out;
}

bool SameRows(const KeyStore& a, const KeyStore& b, size_t rows) {
  return std::memcmp(a.scores(0), b.scores(0),
                     rows * a.num_leaves() * sizeof(double)) == 0 &&
         std::memcmp(a.ids(0), b.ids(0),
                     rows * a.num_leaves() * sizeof(int32_t)) == 0;
}

TEST(KeyStoreExtendTest, ExtendingLeavesThePublishedStoreBitIdentical) {
  const KeyStore base = MakeStore(100, 10);
  const std::vector<char> before = Image(base);
  KeyStore ext = base.Extend(3);
  EXPECT_EQ(ext.scores(0), base.scores(0)) << "extension copied the rows";
  for (int i = 0; i < 3; ++i) ext.Append(KeyOf(1000 + i));
  ASSERT_EQ(ext.size(), 103u);
  EXPECT_EQ(base.size(), 100u);
  EXPECT_EQ(Image(base), before);
  EXPECT_TRUE(SameRows(ext, base, 100));
  EXPECT_EQ(ext.score(101, 0), 1001.0);
  EXPECT_EQ(ext.ids(102)[1], 1003);
  // A copy shares nothing: it has rows of its own.
  const KeyStore copy = ext;
  EXPECT_NE(copy.scores(0), ext.scores(0));
  EXPECT_EQ(Image(copy), Image(ext));
}

TEST(KeyStoreExtendTest, SecondExtensionFromTheSameBaseCopies) {
  const KeyStore base = MakeStore(100, 10);
  KeyStore first = base.Extend(2);
  first.Append(KeyOf(500));
  first.Append(KeyOf(501));
  // The free capacity past row 100 is taken: the rival must copy.
  KeyStore second = base.Extend(2, /*headroom=*/4);
  EXPECT_NE(second.scores(0), base.scores(0));
  second.Append(KeyOf(700));
  second.Append(KeyOf(701));
  EXPECT_EQ(first.score(100, 0), 500.0);
  EXPECT_EQ(first.score(101, 0), 501.0);
  EXPECT_EQ(second.score(100, 0), 700.0);
  EXPECT_EQ(second.score(101, 0), 701.0);
  EXPECT_TRUE(SameRows(first, base, 100));
  EXPECT_TRUE(SameRows(second, base, 100));
  EXPECT_EQ(base.size(), 100u);

  // The winner is now the tip: extending it shares again, up to capacity.
  KeyStore third = first.Extend(8);
  EXPECT_EQ(third.scores(0), base.scores(0));
  for (int i = 0; i < 8; ++i) third.Append(KeyOf(800 + i));
  KeyStore fourth = third.Extend(1);  // past capacity: copies
  EXPECT_NE(fourth.scores(0), base.scores(0));
  fourth.Append(KeyOf(900));
  EXPECT_TRUE(SameRows(fourth, third, 110));
  EXPECT_EQ(first.score(101, 0), 501.0);
  // The copy kept headroom: its own next extension shares.
  KeyStore second_tip = second.Extend(4);
  EXPECT_EQ(second_tip.scores(0), second.scores(0));
}

// One thread reads every row of a published store over and over while
// another extends it: a chain of one-row extensions sharing its buffer,
// plus a rival extension of the same base that must copy. The reader's
// rows never change, and TSan sees no access to them from the writer.
TEST(KeyStoreExtendTest, ReaderOfThePublishedStoreRacesNoExtension) {
  constexpr size_t kRows = 2000;
  auto base = std::make_shared<const KeyStore>(MakeStore(kRows, 200));
  const double want = static_cast<double>(kRows) * (kRows - 1) / 2;
  std::atomic<bool> reading{false};
  std::atomic<bool> writing{true};
  std::atomic<int> bad_sums{0};
  std::thread reader([&] {
    reading = true;
    do {
      double sum = 0;
      for (size_t r = 0; r < base->size(); ++r) sum += base->score(r, 0);
      if (sum != want) bad_sums.fetch_add(1);
    } while (writing.load());
  });
  while (!reading) std::this_thread::yield();
  std::shared_ptr<const KeyStore> tip = base;
  for (int i = 0; i < 200; ++i) {
    auto next = std::make_shared<KeyStore>(tip->Extend(1));
    next->Append(KeyOf(-1.0 - i));
    tip = std::move(next);
  }
  KeyStore rival = base->Extend(1);
  rival.Append(KeyOf(-5000));
  writing = false;
  reader.join();
  EXPECT_EQ(bad_sums.load(), 0);
  EXPECT_EQ(tip->size(), kRows + 200);
  EXPECT_EQ(tip->scores(0), base->scores(0));
  EXPECT_NE(rival.scores(0), base->scores(0));
  EXPECT_EQ(rival.score(kRows, 0), -5000.0);
  EXPECT_EQ(tip->score(kRows, 0), -1.0);
}

}  // namespace
}  // namespace prefsql
