// Batch execution against a frozen row-at-a-time reference: every query
// must reproduce, byte for byte and in each of the five golden engine
// configurations, the output the former row-at-a-time pull protocol
// produced — tests/parity/vectorized_parity.expected, recorded from that
// protocol with these seeds, table sizes and queries. The tables include
// NULL holes and NaN doubles (the values whose comparison semantics most
// easily diverge between a row-at-a-time and a selection-vector filter).
// Plus the mid-stream robustness cases: a cancel or timeout arriving while
// a cursor holds a latched, half-replayed batch must unwind promptly and
// cleanly.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/connection.h"
#include "util/random.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

// Builds `data(id, a, b, c, tag)`: `a` int with NULL holes, `b` double with
// NULL holes, `c` double with NaN values, `tag` a low-cardinality text.
Status LoadRandomTable(Database& db, size_t n, uint64_t seed) {
  std::vector<ColumnDef> cols = {{"id", ColumnType::kInt},
                                 {"a", ColumnType::kInt},
                                 {"b", ColumnType::kDouble},
                                 {"c", ColumnType::kDouble},
                                 {"tag", ColumnType::kText}};
  PSQL_RETURN_IF_ERROR(db.catalog().CreateTable("data", std::move(cols),
                                                /*if_not_exists=*/false));
  PSQL_ASSIGN_OR_RETURN(Table * table, db.catalog().GetTable("data"));
  Random rng(seed);
  const std::vector<std::string> tags = {"low", "mid", "high"};
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::Int(rng.Uniform(0, 100)));
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null()
                      : Value::Double(rng.UniformDouble(0.0, 50.0)));
    row.push_back(rng.Bernoulli(0.05)
                      ? Value::Double(std::numeric_limits<double>::quiet_NaN())
                      : Value::Double(rng.UniformDouble(-10.0, 10.0)));
    row.push_back(Value::Text(rng.Choice(tags)));
    rows.push_back(std::move(row));
  }
  table->BulkLoadUnchecked(std::move(rows));
  return Status::OK();
}

// The golden configurations (mirrors the golden-file harness variants).
struct Config {
  const char* name;
  const char* prelude;
};

constexpr Config kConfigs[] = {
    {"rewrite", ""},
    {"direct serial", "SET evaluation_mode = bnl;"},
    {"direct parallel",
     "SET evaluation_mode = bnl; SET bmo_threads = 4; "
     "SET parallel_min_rows = 1;"},
    {"sfs, pushdown off",
     "SET evaluation_mode = sfs; SET preference_pushdown = off;"},
    {"direct less", "SET evaluation_mode = bnl; SET bmo_algorithm = less;"},
};

// Query shapes chosen to hit every NextBatch implementation (scans, filter,
// project, limit, distinct, aggregate, join, sort, BMO) and the batch
// predicate fast paths (col-op-literal both spellings, IS [NOT] NULL, the
// generic path with NULL/NaN arithmetic).
const char* const kQueries[] = {
    "SELECT id, a, b FROM data WHERE a < 40 AND tag = 'mid' ORDER BY id",
    "SELECT id FROM data WHERE 40 > a AND b IS NOT NULL ORDER BY id",
    "SELECT id FROM data WHERE a + b > c ORDER BY id",
    "SELECT id, c FROM data WHERE b IS NULL ORDER BY id",
    "SELECT id, a + 1, b * 2 FROM data ORDER BY id LIMIT 20 OFFSET 5",
    "SELECT DISTINCT tag FROM data ORDER BY tag",
    "SELECT tag, COUNT(*), MIN(a) FROM data GROUP BY tag ORDER BY tag",
    "SELECT d.id, c.id FROM data d, car c WHERE d.id = c.id AND c.price < "
    "18000 ORDER BY d.id LIMIT 30",
    "SELECT id FROM car WHERE price < 20000 PREFERRING LOWEST(price) AND "
    "LOWEST(mileage) ORDER BY id",
    "SELECT id, LEVEL(category) FROM car PREFERRING category IN "
    "('roadster', 'coupe') AND price AROUND 15000 ORDER BY id",
};

std::string RunAll(const Config& config, uint64_t seed) {
  Connection conn;
  EXPECT_TRUE(LoadRandomTable(conn.database(), 700, seed).ok());
  EXPECT_TRUE(GenerateUsedCars(conn.database(), 400, seed).ok());
  if (config.prelude[0] != '\0') {
    EXPECT_TRUE(conn.ExecuteScript(config.prelude).ok()) << config.name;
  }
  std::string out;
  for (const char* q : kQueries) {
    auto r = conn.Execute(q);
    EXPECT_TRUE(r.ok()) << config.name << " " << q << ": "
                        << r.status().ToString();
    if (!r.ok()) return "<error>";
    out += r->ToString(/*max_rows=*/2000);
    out += "\n";
  }
  return out;
}

// The frozen reference output of `seed`: the text between its
// "=== seed N" header line and the next header.
std::string ExpectedFor(uint64_t seed) {
  std::ifstream in(PREFSQL_PARITY_EXPECTED);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string all = buf.str();
  const std::string header = "=== seed " + std::to_string(seed) + "\n";
  const size_t begin = all.find(header);
  if (begin == std::string::npos) return "<missing seed>";
  const size_t body = begin + header.size();
  const size_t end = all.find("=== seed ", body);
  return all.substr(body, end == std::string::npos ? end : end - body);
}

TEST(VectorizedParityTest, BatchOutputMatchesFrozenRowReference) {
  for (uint64_t seed : {3u, 41u, 77u}) {
    const std::string expected = ExpectedFor(seed);
    for (const Config& config : kConfigs) {
      SCOPED_TRACE(std::string(config.name) + " seed " +
                   std::to_string(seed));
      EXPECT_EQ(RunAll(config, seed), expected);
    }
  }
}

TEST(VectorizedParityTest, StatsReportBatchesAndNoFallback) {
  Connection conn;
  ASSERT_TRUE(LoadRandomTable(conn.database(), 700, 5).ok());

  // A scan+filter pipeline: batches counted.
  auto r = conn.Execute("SELECT id FROM data WHERE a < 40 ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(conn.last_stats().batches, 0u);
  EXPECT_GT(conn.last_stats().batch_rows, 0u);

  // An aggregate root pulls batches natively; nothing falls back.
  auto agg = conn.Execute("SELECT tag, COUNT(*) FROM data GROUP BY tag");
  ASSERT_TRUE(agg.ok());
  EXPECT_GT(conn.last_stats().batches, 0u);
  EXPECT_TRUE(conn.last_stats().batch_fallback.empty())
      << conn.last_stats().batch_fallback;
}

TEST(VectorizedParityTest, MidStreamCancelUnwindsALatchedBatch) {
  Connection conn;
  ASSERT_TRUE(GenerateUsedCars(conn.database(), 5000).ok());
  auto cursor = conn.OpenCursor("SELECT id FROM car WHERE price >= 0");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = cursor->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  // The cursor now holds a latched batch with ~1k replayable rows. A cancel
  // arriving between pulls must still surface at the very next pull (the
  // per-pull interrupt check runs before the batch replay) and the unwind
  // must release the tree, the pin, and the statement lock.
  ASSERT_TRUE(conn.session().CancelCurrent());
  auto next = cursor->Next();
  ASSERT_FALSE(next.ok());
  EXPECT_TRUE(next.status().IsCancelled()) << next.status().ToString();
  EXPECT_FALSE(cursor->is_open());
  // The session (and the engine's statement lock) are free again.
  EXPECT_TRUE(conn.Execute("SELECT id FROM car LIMIT 1").ok());
}

TEST(VectorizedParityTest, TimeoutSurfacesBetweenBatchSweeps) {
  Connection conn;
  ASSERT_TRUE(GenerateUsedCars(conn.database(), 2000).ok());
  ASSERT_TRUE(conn.Execute("SET statement_timeout_ms = 30").ok());
  // A 4M-row cross join polls its deadline once per batch, not per row; the
  // timeout must still fire promptly mid-drain.
  auto r = conn.Execute(
      "SELECT a.id FROM car a, car b WHERE a.price + b.price > 0");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  // The failed statement latched nothing: the session recovers.
  ASSERT_TRUE(conn.Execute("SET statement_timeout_ms = 0").ok());
  EXPECT_TRUE(conn.Execute("SELECT id FROM car LIMIT 1").ok());
}

}  // namespace
}  // namespace prefsql
