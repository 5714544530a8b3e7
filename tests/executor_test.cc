#include "engine/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "engine/database.h"

namespace prefsql {
namespace {

// Fixture with a small populated database.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Run("CREATE TABLE emp (id INTEGER, name TEXT, dept TEXT, salary INTEGER)");
    Run("INSERT INTO emp VALUES (1, 'ann', 'dev', 100), (2, 'bob', 'dev', 80), "
        "(3, 'cid', 'ops', 90), (4, 'dee', 'ops', 90), (5, 'eva', 'hr', NULL)");
    Run("CREATE TABLE dept (dname TEXT, budget INTEGER)");
    Run("INSERT INTO dept VALUES ('dev', 1000), ('ops', 500)");
  }

  ResultTable Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultTable();
  }

  Status RunError(const std::string& sql) { return db_.Execute(sql).status(); }

  Database db_;
};

TEST_F(ExecutorTest, SelectConstantWithoutFrom) {
  ResultTable t = Run("SELECT 1 + 2 AS three, 'x'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 3);
  EXPECT_EQ(t.schema().column(0).name, "three");
}

TEST_F(ExecutorTest, WhereFiltersAndNullsDrop) {
  ResultTable t = Run("SELECT name FROM emp WHERE salary > 80");
  EXPECT_EQ(t.num_rows(), 3u);  // eva's NULL salary is UNKNOWN -> dropped
}

TEST_F(ExecutorTest, ProjectionsAndAliases) {
  ResultTable t = Run("SELECT salary * 2 AS double_pay FROM emp WHERE id = 1");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 200);
}

TEST_F(ExecutorTest, StarExpansion) {
  ResultTable t = Run("SELECT * FROM emp WHERE id = 1");
  EXPECT_EQ(t.num_columns(), 4u);
  EXPECT_EQ(t.schema().Names(),
            (std::vector<std::string>{"id", "name", "dept", "salary"}));
}

TEST_F(ExecutorTest, OrderByColumnAliasAndOrdinal) {
  ResultTable by_col = Run("SELECT name FROM emp ORDER BY salary DESC, name");
  EXPECT_EQ(by_col.at(0, 0).AsText(), "ann");
  // NULL sorts first ascending (total order: NULL smallest).
  ResultTable asc = Run("SELECT name FROM emp ORDER BY salary");
  EXPECT_EQ(asc.at(0, 0).AsText(), "eva");
  ResultTable by_alias =
      Run("SELECT name, salary * 2 AS pay2 FROM emp WHERE id < 3 ORDER BY pay2");
  EXPECT_EQ(by_alias.at(0, 0).AsText(), "bob");
  ResultTable by_ord = Run("SELECT name, salary FROM emp WHERE id < 3 ORDER BY 2 DESC");
  EXPECT_EQ(by_ord.at(0, 0).AsText(), "ann");
  EXPECT_TRUE(RunError("SELECT name FROM emp ORDER BY 9").IsInvalidArgument());
}

TEST_F(ExecutorTest, LimitOffset) {
  ResultTable t = Run("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 2);
  EXPECT_EQ(t.at(1, 0).AsInt(), 3);
}

TEST_F(ExecutorTest, Distinct) {
  ResultTable t = Run("SELECT DISTINCT dept FROM emp ORDER BY dept");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.at(0, 0).AsText(), "dev");
}

TEST_F(ExecutorTest, CommaJoinWithWhere) {
  ResultTable t = Run(
      "SELECT name, budget FROM emp, dept WHERE dept = dname ORDER BY id");
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.at(0, 0).AsText(), "ann");
  EXPECT_EQ(t.at(0, 1).AsInt(), 1000);
}

TEST_F(ExecutorTest, InnerJoinOn) {
  ResultTable t = Run(
      "SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.dname "
      "ORDER BY e.id");
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST_F(ExecutorTest, LeftJoinPadsNulls) {
  ResultTable t = Run(
      "SELECT e.name, d.budget FROM emp e LEFT JOIN dept d "
      "ON e.dept = d.dname ORDER BY e.id");
  ASSERT_EQ(t.num_rows(), 5u);
  EXPECT_TRUE(t.at(4, 1).is_null());  // eva's hr dept has no budget row
}

TEST_F(ExecutorTest, CrossJoinCardinality) {
  ResultTable t = Run("SELECT * FROM emp CROSS JOIN dept");
  EXPECT_EQ(t.num_rows(), 10u);
}

TEST_F(ExecutorTest, JoinWithResidualPredicate) {
  ResultTable t = Run(
      "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.dname "
      "AND e.salary < d.budget ORDER BY e.id");
  // dev: 100,80 < 1000 (2 rows); ops: 90,90 < 500 (2 rows).
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST_F(ExecutorTest, Aggregates) {
  ResultTable t = Run(
      "SELECT COUNT(*), COUNT(salary), SUM(salary), AVG(salary), "
      "MIN(salary), MAX(salary) FROM emp");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 5);
  EXPECT_EQ(t.at(0, 1).AsInt(), 4);  // NULL skipped
  EXPECT_EQ(t.at(0, 2).AsInt(), 360);
  EXPECT_DOUBLE_EQ(t.at(0, 3).AsDouble(), 90.0);
  EXPECT_EQ(t.at(0, 4).AsInt(), 80);
  EXPECT_EQ(t.at(0, 5).AsInt(), 100);
}

TEST_F(ExecutorTest, AggregatesOnEmptyInput) {
  ResultTable t = Run("SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 99");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsInt(), 0);
  EXPECT_TRUE(t.at(0, 1).is_null());
}

TEST_F(ExecutorTest, CountDistinct) {
  ResultTable t = Run("SELECT COUNT(DISTINCT dept) FROM emp");
  EXPECT_EQ(t.at(0, 0).AsInt(), 3);
}

TEST_F(ExecutorTest, GroupByHaving) {
  ResultTable t = Run(
      "SELECT dept, COUNT(*) AS c, SUM(salary) FROM emp GROUP BY dept "
      "HAVING COUNT(*) >= 2 ORDER BY dept");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(0, 0).AsText(), "dev");
  EXPECT_EQ(t.at(0, 1).AsInt(), 2);
  EXPECT_EQ(t.at(1, 0).AsText(), "ops");
  EXPECT_EQ(t.at(1, 2).AsInt(), 180);
}

TEST_F(ExecutorTest, GroupByExpression) {
  ResultTable t = Run(
      "SELECT salary % 2, COUNT(*) FROM emp WHERE salary IS NOT NULL "
      "GROUP BY salary % 2 ORDER BY 1");
  EXPECT_EQ(t.num_rows(), 1u);  // all salaries are even
  EXPECT_EQ(t.at(0, 1).AsInt(), 4);
}

TEST_F(ExecutorTest, SelectStarWithGroupByIsError) {
  EXPECT_TRUE(RunError("SELECT * FROM emp GROUP BY dept").IsInvalidArgument());
}

TEST_F(ExecutorTest, ScalarSubquery) {
  ResultTable t = Run(
      "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).AsText(), "ann");
}

TEST_F(ExecutorTest, CorrelatedExists) {
  // Employees above their department average.
  ResultTable t = Run(
      "SELECT e1.name FROM emp e1 WHERE NOT EXISTS "
      "(SELECT 1 FROM emp e2 WHERE e2.dept = e1.dept AND "
      "e2.salary > e1.salary) AND e1.salary IS NOT NULL ORDER BY e1.id");
  // ann tops dev; cid and dee tie atop ops.
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.at(0, 0).AsText(), "ann");
}

TEST_F(ExecutorTest, InSubquery) {
  ResultTable t = Run(
      "SELECT name FROM emp WHERE dept IN (SELECT dname FROM dept) "
      "ORDER BY id");
  EXPECT_EQ(t.num_rows(), 4u);
  ResultTable t2 = Run(
      "SELECT name FROM emp WHERE dept NOT IN (SELECT dname FROM dept)");
  EXPECT_EQ(t2.num_rows(), 1u);
}

TEST_F(ExecutorTest, DerivedTable) {
  ResultTable t = Run(
      "SELECT top.name FROM (SELECT name, salary FROM emp "
      "WHERE salary >= 90) top ORDER BY top.salary DESC");
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST_F(ExecutorTest, ViewExpansion) {
  Run("CREATE VIEW rich AS SELECT * FROM emp WHERE salary >= 90");
  ResultTable t = Run("SELECT name FROM rich ORDER BY id");
  EXPECT_EQ(t.num_rows(), 3u);
  Run("DROP VIEW rich");
  EXPECT_TRUE(RunError("SELECT * FROM rich").IsNotFound());
}

TEST_F(ExecutorTest, InsertSelect) {
  Run("CREATE TABLE emp2 (id INTEGER, name TEXT, dept TEXT, salary INTEGER)");
  ResultTable t = Run("INSERT INTO emp2 SELECT * FROM emp WHERE dept = 'dev'");
  EXPECT_EQ(t.at(0, 0).AsInt(), 2);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM emp2").at(0, 0).AsInt(), 2);
}

TEST_F(ExecutorTest, InsertPartialColumnsDefaultsNull) {
  Run("CREATE TABLE s (a INTEGER, b TEXT)");
  Run("INSERT INTO s (b) VALUES ('only-b')");
  ResultTable t = Run("SELECT a, b FROM s");
  EXPECT_TRUE(t.at(0, 0).is_null());
  EXPECT_EQ(t.at(0, 1).AsText(), "only-b");
}

TEST_F(ExecutorTest, UpdateWithWhere) {
  ResultTable affected = Run("UPDATE emp SET salary = salary + 10 WHERE dept = 'ops'");
  EXPECT_EQ(affected.at(0, 0).AsInt(), 2);
  ResultTable t = Run("SELECT SUM(salary) FROM emp WHERE dept = 'ops'");
  EXPECT_EQ(t.at(0, 0).AsInt(), 200);
}

TEST_F(ExecutorTest, UpdateEvaluatesAgainstOldRow) {
  Run("CREATE TABLE sw (x INTEGER, y INTEGER)");
  Run("INSERT INTO sw VALUES (1, 2)");
  Run("UPDATE sw SET x = y, y = x");
  ResultTable t = Run("SELECT x, y FROM sw");
  EXPECT_EQ(t.at(0, 0).AsInt(), 2);
  EXPECT_EQ(t.at(0, 1).AsInt(), 1);  // swap, not cascade
}

TEST_F(ExecutorTest, DeleteWithAndWithoutWhere) {
  EXPECT_EQ(Run("DELETE FROM emp WHERE dept = 'hr'").at(0, 0).AsInt(), 1);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM emp").at(0, 0).AsInt(), 4);
  EXPECT_EQ(Run("DELETE FROM emp").at(0, 0).AsInt(), 4);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM emp").at(0, 0).AsInt(), 0);
}

TEST_F(ExecutorTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(RunError("SELECT nope FROM emp").IsInvalidArgument());
  EXPECT_TRUE(RunError("SELECT * FROM nosuch").IsNotFound());
  EXPECT_TRUE(RunError("INSERT INTO emp VALUES (1)").IsInvalidArgument());
  EXPECT_TRUE(RunError("SELECT (SELECT id FROM dept, emp) FROM emp")
                  .IsInvalidArgument());  // scalar subquery shape
}

TEST_F(ExecutorTest, PreferenceQueryRejectedByPlainEngine) {
  Status s = RunError("SELECT * FROM emp PREFERRING LOWEST(salary)");
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("Preference"), std::string::npos);
}

TEST_F(ExecutorTest, ViewMaterializedOncePerStatement) {
  // Self-join of a view: both sides must see the same materialization.
  Run("CREATE VIEW v AS SELECT * FROM emp WHERE salary IS NOT NULL");
  ResultTable t = Run(
      "SELECT COUNT(*) FROM v a, v b WHERE a.id = b.id");
  EXPECT_EQ(t.at(0, 0).AsInt(), 4);
}

// UPDATE and DELETE find their rows through an index when the WHERE has an
// indexable conjunct. They must touch exactly the rows a full scan touches:
// every statement runs on `ix` (indexed on k) and on its twin `scan` (no
// index), and the rows affected and the visible contents must agree.
class IndexedDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* t : {"ix", "scan"}) {
      Run(std::string("CREATE TABLE ") + t +
          " (k INTEGER, v INTEGER, tag TEXT)");
      Run(std::string("INSERT INTO ") + t +
          " VALUES (1, 10, 'a'), (2, 20, 'b'), (2, 21, 'c'), (3, 30, 'a'), "
          "(NULL, 40, 'b'), (5, 50, 'c'), (6, 60, 'a'), (NULL, 70, 'a')");
    }
    Run("CREATE INDEX ix_k ON ix (k)");
  }

  ResultTable Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ResultTable();
  }

  // `tmpl` with every "$t" replaced by `table`.
  static std::string On(std::string tmpl, const std::string& table) {
    for (size_t at; (at = tmpl.find("$t")) != std::string::npos;) {
      tmpl.replace(at, 2, table);
    }
    return tmpl;
  }

  std::string Contents(const std::string& table) {
    return Run("SELECT k, v, tag FROM " + table + " ORDER BY v, k, tag")
        .ToString(1000);
  }

  // Runs the statement on both tables and compares. Returns whether the
  // indexed table's statement was served by the index.
  bool Both(const std::string& tmpl) {
    const uint64_t before = db_.executor().stats().index_scans;
    ResultTable indexed = Run(On(tmpl, "ix"));
    const bool used_index = db_.executor().stats().index_scans > before;
    // Skyline-cache maintenance merges the end-stamped slots with the
    // cached positions and needs them ascending, whatever the index order.
    const auto& dead = db_.executor().last_dml().dead;
    EXPECT_TRUE(std::is_sorted(dead.begin(), dead.end())) << tmpl;
    ResultTable scanned = Run(On(tmpl, "scan"));
    EXPECT_EQ(indexed.ToString(), scanned.ToString()) << tmpl;
    EXPECT_EQ(Contents("ix"), Contents("scan")) << "after " << tmpl;
    return used_index;
  }

  void CollectGarbage() {
    for (const char* name : {"ix", "scan"}) {
      auto table = db_.catalog().GetTable(name);
      ASSERT_TRUE(table.ok());
      (*table)->CollectGarbage(db_.catalog().epochs().current());
    }
  }

  Database db_;
};

TEST_F(IndexedDmlTest, EqualityAndRangeWheresUseTheIndex) {
  EXPECT_TRUE(Both("UPDATE $t SET v = v + 1 WHERE k = 2"));
  EXPECT_TRUE(Both("UPDATE $t SET tag = 'r' WHERE k >= 2 AND k < 6"));
  EXPECT_TRUE(Both("UPDATE $t SET v = v * 2 WHERE k BETWEEN 3 AND 5"));
  EXPECT_TRUE(Both("DELETE FROM $t WHERE k > 5"));
  EXPECT_TRUE(Both("DELETE FROM $t WHERE k = 3"));
  EXPECT_TRUE(Both("UPDATE $t SET v = 0 WHERE k = 42"));  // no match
  // No indexable conjunct: the full scan serves both tables.
  EXPECT_FALSE(Both("UPDATE $t SET v = v - 1 WHERE v > 20"));
  EXPECT_FALSE(Both("DELETE FROM $t WHERE k IS NULL"));
}

TEST_F(IndexedDmlTest, ResidualConjunctsAreReapplied) {
  EXPECT_TRUE(Both("UPDATE $t SET v = 0 WHERE k = 2 AND tag = 'c'"));
  EXPECT_TRUE(Both("DELETE FROM $t WHERE k <= 3 AND v > 15"));
  EXPECT_TRUE(Both("UPDATE $t SET tag = 'z' WHERE k < 7 AND (v = 10 OR "
                   "tag = 'a')"));
}

TEST_F(IndexedDmlTest, NullKeysMatchNoComparison) {
  Both("UPDATE $t SET v = v + 100 WHERE k = NULL");
  EXPECT_TRUE(Both("DELETE FROM $t WHERE k < 3"));
  EXPECT_TRUE(Both("UPDATE $t SET k = NULL WHERE k = 5"));
  EXPECT_TRUE(Both("DELETE FROM $t WHERE k = 5"));
  EXPECT_FALSE(Both("UPDATE $t SET k = 9 WHERE k IS NULL AND v > 60"));
  EXPECT_TRUE(Both("DELETE FROM $t WHERE k = 9"));
}

TEST_F(IndexedDmlTest, DeadVersionsInTheIndexAreSkipped) {
  // Every update leaves the superseded version of k = 5 in the index.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(Both("UPDATE $t SET v = v + 1 WHERE k = 5"));
  }
  EXPECT_TRUE(Both("UPDATE $t SET tag = 'x' WHERE k >= 5"));
  EXPECT_EQ(Run("SELECT v FROM ix WHERE k = 5").ToString(),
            Run("SELECT v FROM scan WHERE k = 5").ToString());
  EXPECT_TRUE(Both("DELETE FROM $t WHERE k = 5"));
  EXPECT_TRUE(Both("UPDATE $t SET v = 1 WHERE k = 5"));  // all dead now
}

TEST_F(IndexedDmlTest, SlotsClearedByGcAreSkipped) {
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(Both("UPDATE $t SET v = v + 1 WHERE k = 2"));
  }
  // The index holds the superseded versions; GC clears their payloads.
  CollectGarbage();
  EXPECT_TRUE(Both("UPDATE $t SET v = v + 1 WHERE k = 2"));
  EXPECT_TRUE(Both("UPDATE $t SET tag = 'g' WHERE k BETWEEN 1 AND 2"));
  CollectGarbage();
  EXPECT_TRUE(Both("DELETE FROM $t WHERE k = 2"));
  EXPECT_TRUE(Both("DELETE FROM $t WHERE k <= 2"));
}

TEST_F(IndexedDmlTest, UpdatingTheIndexedColumnVisitsEachRowOnce) {
  // The new versions' keys match the WHERE again; they sit above the
  // statement's starting heap and must not be revisited.
  EXPECT_TRUE(Both("UPDATE $t SET k = k + 1 WHERE k >= 2"));
  EXPECT_TRUE(Both("UPDATE $t SET k = 2 WHERE k = 3"));
  EXPECT_TRUE(Both("UPDATE $t SET k = k * 10 WHERE k = 2"));
  EXPECT_EQ(Run("SELECT v FROM ix WHERE k = 20 ORDER BY v").ToString(),
            Run("SELECT v FROM scan WHERE k = 20 ORDER BY v").ToString());
  EXPECT_TRUE(Both("DELETE FROM $t WHERE k = 20"));
}

}  // namespace
}  // namespace prefsql
