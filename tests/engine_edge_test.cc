// Edge cases across the engine and the preference layer that the scenario
// tests do not reach: self joins, nested subqueries, date preferences,
// paper restrictions, and failure injection.

#include <gtest/gtest.h>

#include "core/connection.h"
#include "workload/generators.h"

namespace prefsql {
namespace {

class EngineEdgeTest : public ::testing::Test {
 protected:
  ResultTable Run(const std::string& sql) {
    auto r = conn_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultTable();
  }
  Status RunError(const std::string& sql) {
    return conn_.Execute(sql).status();
  }
  Connection conn_;
};

TEST_F(EngineEdgeTest, SelfJoin) {
  Run("CREATE TABLE p (id INTEGER, boss INTEGER, name TEXT)");
  Run("INSERT INTO p VALUES (1, NULL, 'root'), (2, 1, 'a'), (3, 1, 'b'), "
      "(4, 2, 'c')");
  ResultTable t = Run(
      "SELECT child.name, parent.name FROM p child JOIN p parent "
      "ON child.boss = parent.id ORDER BY child.id");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.at(0, 0).AsText(), "a");
  EXPECT_EQ(t.at(0, 1).AsText(), "root");
  EXPECT_EQ(t.at(2, 0).AsText(), "c");
  EXPECT_EQ(t.at(2, 1).AsText(), "a");
}

TEST_F(EngineEdgeTest, NestedSubqueries) {
  Run("CREATE TABLE n (v INTEGER)");
  Run("INSERT INTO n VALUES (1), (2), (3), (4)");
  ResultTable t = Run(
      "SELECT v FROM n WHERE v > (SELECT AVG(v) FROM n WHERE v < "
      "(SELECT MAX(v) FROM n)) ORDER BY v");
  // AVG(1,2,3) = 2 -> {3, 4}.
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 3);
}

TEST_F(EngineEdgeTest, CorrelatedScalarSubqueryInSelectList) {
  Run("CREATE TABLE a (k INTEGER)");
  Run("CREATE TABLE b (k INTEGER, w INTEGER)");
  Run("INSERT INTO a VALUES (1), (2)");
  Run("INSERT INTO b VALUES (1, 10), (1, 20), (2, 5)");
  ResultTable t = Run(
      "SELECT k, (SELECT SUM(w) FROM b WHERE b.k = a.k) FROM a ORDER BY k");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(0, 1).AsInt(), 30);
  EXPECT_EQ(t.at(1, 1).AsInt(), 5);
}

// The EXISTS probe stops at the first qualifying row: the row x=2 of t,
// whose scalar subquery would fail with more than one row, is never read.
// The rewrite path's correlated NOT EXISTS (§3.2) relies on this early
// exit for its cost, and this pins it for the semantics.
TEST_F(EngineEdgeTest, ExistsProbeStopsAtFirstQualifyingRow) {
  Run("CREATE TABLE t (x INTEGER)");
  Run("CREATE TABLE u (k INTEGER, v INTEGER)");
  Run("INSERT INTO t VALUES (1), (2)");
  Run("INSERT INTO u VALUES (1, 10), (2, 20), (2, 21)");
  ResultTable t = Run(
      "SELECT 'hit' WHERE EXISTS (SELECT * FROM t WHERE "
      "(SELECT v FROM u WHERE u.k = t.x) > 0)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsText(), "hit");
  // Through a join the probe stops at the first joined row too.
  ResultTable j = Run(
      "SELECT 'hit' WHERE EXISTS (SELECT * FROM t JOIN t s ON s.x = t.x "
      "WHERE (SELECT v FROM u WHERE u.k = t.x) > 0)");
  ASSERT_EQ(j.num_rows(), 1u);
  // Draining the same subquery does read x=2 and fails.
  EXPECT_FALSE(conn_
                   .Execute("SELECT x FROM t WHERE "
                            "(SELECT v FROM u WHERE u.k = t.x) > 0")
                   .ok());
}

// LIMIT stops reading at the rows OFFSET and LIMIT still want: the row x=2
// of t, whose scalar subquery would fail with more than one row, is never
// evaluated once the first qualifying row satisfied LIMIT 1.
TEST_F(EngineEdgeTest, LimitStopsAtTheRowsItNeeds) {
  Run("CREATE TABLE t (x INTEGER)");
  Run("CREATE TABLE u (k INTEGER, v INTEGER)");
  Run("INSERT INTO t VALUES (1), (2)");
  Run("INSERT INTO u VALUES (1, 10), (2, 20), (2, 21)");
  ResultTable t =
      Run("SELECT x FROM t WHERE (SELECT v FROM u WHERE u.k = t.x) > 0 "
          "LIMIT 1");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 1);
  // LIMIT 0 reads nothing at all.
  EXPECT_EQ(Run("SELECT x FROM t WHERE (SELECT v FROM u WHERE u.k = t.x) "
                "> 0 LIMIT 0")
                .num_rows(),
            0u);
  // Asking for the second row must evaluate x=2, and fails.
  EXPECT_FALSE(conn_
                   .Execute("SELECT x FROM t WHERE "
                            "(SELECT v FROM u WHERE u.k = t.x) > 0 LIMIT 2")
                   .ok());
}

TEST_F(EngineEdgeTest, LimitWithOffsetStopsAtTheRowsItNeeds) {
  Run("CREATE TABLE t (x INTEGER)");
  Run("CREATE TABLE u (k INTEGER, v INTEGER)");
  Run("INSERT INTO t VALUES (1), (2), (3)");
  Run("INSERT INTO u VALUES (1, 10), (2, 20), (3, 30), (3, 31)");
  ResultTable t =
      Run("SELECT x FROM t WHERE (SELECT v FROM u WHERE u.k = t.x) > 0 "
          "LIMIT 1 OFFSET 1");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 2);
}

TEST_F(EngineEdgeTest, LimitThroughACursorStopsAtTheRowsItNeeds) {
  Run("CREATE TABLE t (x INTEGER)");
  Run("CREATE TABLE u (k INTEGER, v INTEGER)");
  Run("INSERT INTO t VALUES (1), (2)");
  Run("INSERT INTO u VALUES (1, 10), (2, 20), (2, 21)");
  auto cursor = conn_.OpenCursor(
      "SELECT x FROM t WHERE (SELECT v FROM u WHERE u.k = t.x) > 0 LIMIT 1");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto row = cursor->Next();
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row).row()[0].AsInt(), 1);
  auto end = cursor->Next();
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_FALSE(end->has_value());
}

TEST_F(EngineEdgeTest, PreferenceOnDateBetween) {
  Run("CREATE TABLE ev (id INTEGER, d DATE)");
  Run("INSERT INTO ev VALUES (1, '1999/6/20'), (2, '1999/7/5'), "
      "(3, '1999/8/1')");
  // BETWEEN over dates given as text literals.
  ResultTable t = Run(
      "SELECT id FROM ev PREFERRING d BETWEEN '1999/7/1', '1999/7/10'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 2);
  // With no event inside the window, the closest one wins.
  Run("DELETE FROM ev WHERE id = 2");
  ResultTable closest = Run(
      "SELECT id FROM ev PREFERRING d BETWEEN '1999/7/1', '1999/7/10'");
  ASSERT_EQ(closest.num_rows(), 1u);
  EXPECT_EQ(closest.at(0, 0).AsInt(), 1);  // June 20 is 11 days off, Aug 1 is 22
}

TEST_F(EngineEdgeTest, PreferringInWhereSubqueryIsRejected) {
  // §2.2.5: "As a current restriction sub-queries in the WHERE clause may
  // not contain PREFERRING clauses."
  Run("CREATE TABLE t (x INTEGER)");
  Run("INSERT INTO t VALUES (1)");
  Status s = RunError(
      "SELECT x FROM t WHERE x IN (SELECT x FROM t PREFERRING LOWEST(x))");
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("Preference"), std::string::npos);
}

TEST_F(EngineEdgeTest, NullOnlyPreferenceColumn) {
  Run("CREATE TABLE t (id INTEGER, v INTEGER)");
  Run("INSERT INTO t VALUES (1, NULL), (2, NULL)");
  // All candidates share the worst level: both are maximal.
  ResultTable t = Run("SELECT id FROM t PREFERRING LOWEST(v) ORDER BY id");
  EXPECT_EQ(t.num_rows(), 2u);
  // A real value dominates the NULLs.
  Run("INSERT INTO t VALUES (3, 7)");
  ResultTable t2 = Run("SELECT id FROM t PREFERRING LOWEST(v)");
  ASSERT_EQ(t2.num_rows(), 1u);
  EXPECT_EQ(t2.at(0, 0).AsInt(), 3);
}

TEST_F(EngineEdgeTest, PreferenceOverJoin) {
  Run("CREATE TABLE items (id INTEGER, shop_id INTEGER, price INTEGER)");
  Run("CREATE TABLE shops (sid INTEGER, rating INTEGER)");
  Run("INSERT INTO items VALUES (1, 10, 100), (2, 20, 100), (3, 10, 150)");
  Run("INSERT INTO shops VALUES (10, 5), (20, 3)");
  ResultTable t = Run(
      "SELECT id FROM items JOIN shops ON shop_id = sid "
      "PREFERRING LOWEST(price) AND HIGHEST(rating)");
  // (100, 5) dominates (100, 3) and (150, 5).
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 1);
}

TEST_F(EngineEdgeTest, PreferenceOverDerivedTable) {
  Run("CREATE TABLE raw (id INTEGER, v INTEGER)");
  Run("INSERT INTO raw VALUES (1, 10), (2, 20), (3, 30), (4, 40)");
  ResultTable t = Run(
      "SELECT id FROM (SELECT id, v FROM raw WHERE v > 15) filtered "
      "PREFERRING LOWEST(v)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 2);
}

TEST_F(EngineEdgeTest, ArithmeticAttributeExpression) {
  Run("CREATE TABLE cars2 (id INTEGER, power INTEGER, weight INTEGER)");
  Run("INSERT INTO cars2 VALUES (1, 100, 1000), (2, 150, 2000), "
      "(3, 200, 1000)");
  // §2.2.1: "instead of a single attribute an arithmetic expression over
  // several attributes ... [is] admissible, too".
  ResultTable t = Run(
      "SELECT id FROM cars2 PREFERRING HIGHEST(power / weight)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 3);  // 0.2 beats 0.1 and 0.075
}

TEST_F(EngineEdgeTest, EmptyTablePreferenceQuery) {
  Run("CREATE TABLE t (x INTEGER)");
  ResultTable t = Run("SELECT x FROM t PREFERRING LOWEST(x)");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(EngineEdgeTest, DuplicateRowsAllSurvive) {
  Run("CREATE TABLE t (id INTEGER, v INTEGER)");
  Run("INSERT INTO t VALUES (1, 5), (2, 5), (3, 9)");
  ResultTable t = Run("SELECT id FROM t PREFERRING LOWEST(v) ORDER BY id");
  // Equivalent tuples are substitutable: both minimal rows are in the BMO.
  ASSERT_EQ(t.num_rows(), 2u);
}

TEST_F(EngineEdgeTest, ContainsPreferenceEndToEnd) {
  Run("CREATE TABLE flats (id INTEGER, description TEXT)");
  Run("INSERT INTO flats VALUES (1, 'city flat, balcony'), "
      "(2, 'house with a big GARDEN'), (3, 'garden view apartment')");
  for (EvaluationMode mode :
       {EvaluationMode::kRewrite, EvaluationMode::kBlockNestedLoop}) {
    conn_.options().mode = mode;
    ResultTable t =
        Run("SELECT id FROM flats PREFERRING description CONTAINS 'garden' "
            "ORDER BY id");
    ASSERT_EQ(t.num_rows(), 2u) << EvaluationModeToString(mode);
    EXPECT_EQ(t.at(0, 0).AsInt(), 2);
    EXPECT_EQ(t.at(1, 0).AsInt(), 3);
  }
}

TEST_F(EngineEdgeTest, LongCascadeChain) {
  Run("CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER, d INTEGER, "
      "e INTEGER)");
  Run("INSERT INTO t VALUES (1,1,1,1,2), (1,1,1,1,1), (1,1,1,2,0), "
      "(0,9,9,9,9)");
  ResultTable t = Run(
      "SELECT e FROM t PREFERRING LOWEST(a) CASCADE LOWEST(b) CASCADE "
      "LOWEST(c) CASCADE LOWEST(d) CASCADE LOWEST(e)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 9);  // a=0 wins the whole cascade
}

TEST_F(EngineEdgeTest, PreferenceInDerivedTableIsRejected) {
  // Like the WHERE-subquery restriction (§2.2.5), PREFERRING inside a
  // derived table is not supported; the engine reports it cleanly.
  Run("CREATE TABLE t (a INTEGER)");
  Run("INSERT INTO t VALUES (1), (2)");
  Status s = RunError(
      "SELECT COUNT(*) FROM (SELECT a FROM t PREFERRING LOWEST(a)) x");
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST_F(EngineEdgeTest, WideParetoDirectly) {
  Run("CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER, d INTEGER, "
      "e INTEGER, f INTEGER)");
  Run("INSERT INTO t VALUES (1,1,1,1,1,1), (2,1,1,1,1,1), (1,2,1,1,1,1)");
  ResultTable t = Run(
      "SELECT a FROM t PREFERRING LOWEST(a) AND LOWEST(b) AND LOWEST(c) "
      "AND LOWEST(d) AND LOWEST(e) AND LOWEST(f)");
  EXPECT_EQ(t.num_rows(), 1u);
}

}  // namespace
}  // namespace prefsql
