#include <gtest/gtest.h>

#include "db/database.h"
#include "sql/parser.h"

namespace apollo::db {
namespace {

using common::Value;
using common::ValueType;

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema users("USERS", {{"ID", ValueType::kInt},
                           {"NAME", ValueType::kString},
                           {"AGE", ValueType::kInt},
                           {"BALANCE", ValueType::kDouble}});
    users.AddIndex("PRIMARY", {"ID"});
    users.AddIndex("NAME_IDX", {"NAME"});
    ASSERT_TRUE(db_.CreateTable(std::move(users)).ok());

    Schema orders("ORDERS", {{"O_ID", ValueType::kInt},
                             {"USER_ID", ValueType::kInt},
                             {"AMOUNT", ValueType::kDouble}});
    orders.AddIndex("PRIMARY", {"O_ID"});
    orders.AddIndex("USER_IDX", {"USER_ID"});
    ASSERT_TRUE(db_.CreateTable(std::move(orders)).ok());

    Exec("INSERT INTO USERS (ID, NAME, AGE, BALANCE) VALUES "
         "(1, 'alice', 30, 10.5), (2, 'bob', 25, 20.0), "
         "(3, 'carol', 35, 5.25), (4, 'dave', 25, 0.0)");
    Exec("INSERT INTO ORDERS (O_ID, USER_ID, AMOUNT) VALUES "
         "(100, 1, 9.99), (101, 1, 19.99), (102, 2, 5.00), (103, 3, 7.50)");
  }

  common::ResultSetPtr Exec(const std::string& sql) {
    auto rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : nullptr;
  }

  /// Executes `sql` asking for cost_rows, as the simulator does.
  common::ResultSetPtr ExecCounted(const std::string& sql) {
    auto stmt = sql::Parse(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    if (!stmt.ok()) return nullptr;
    auto rs = db_.ExecuteStatement(**stmt, CostRows::kCount);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return rs.ok() ? *rs : nullptr;
  }

  Database db_;
};

TEST_F(DatabaseTest, PointLookupViaIndex) {
  auto rs = Exec("SELECT NAME FROM USERS WHERE ID = 2");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).AsString(), "bob");
  // Index probe examines only the matching row.
  EXPECT_EQ(rs->rows_examined(), 1u);
}

TEST_F(DatabaseTest, FullScanFilter) {
  auto rs = Exec("SELECT NAME FROM USERS WHERE AGE = 25 ORDER BY NAME");
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(rs->At(0, 0).AsString(), "bob");
  EXPECT_EQ(rs->At(1, 0).AsString(), "dave");
  EXPECT_EQ(rs->rows_examined(), 4u);  // no index on AGE
}

TEST_F(DatabaseTest, Projection) {
  auto rs = Exec("SELECT ID, BALANCE FROM USERS WHERE NAME = 'alice'");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->columns()[0], "ID");
  EXPECT_EQ(rs->columns()[1], "BALANCE");
  EXPECT_DOUBLE_EQ(rs->At(0, 1).ToDouble(), 10.5);
}

TEST_F(DatabaseTest, StarExpansion) {
  auto rs = Exec("SELECT * FROM USERS WHERE ID = 1");
  ASSERT_EQ(rs->num_columns(), 4u);
  EXPECT_EQ(rs->columns()[1], "NAME");
}

TEST_F(DatabaseTest, ArithmeticInSelectList) {
  auto rs = Exec("SELECT AGE, AGE - 20 AS A20 FROM USERS WHERE ID = 1");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 1).AsInt(), 10);
  EXPECT_EQ(rs->columns()[1], "A20");
}

TEST_F(DatabaseTest, ComparisonOperators) {
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE AGE > 25")->num_rows(), 2u);
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE AGE >= 25")->num_rows(), 4u);
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE AGE < 30")->num_rows(), 2u);
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE AGE <> 25")->num_rows(), 2u);
  EXPECT_EQ(
      Exec("SELECT ID FROM USERS WHERE AGE BETWEEN 25 AND 30")->num_rows(),
      3u);
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE ID IN (1, 3)")->num_rows(),
            2u);
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE NAME LIKE 'c%'")->num_rows(),
            1u);
  EXPECT_EQ(
      Exec("SELECT ID FROM USERS WHERE NAME NOT LIKE 'c%'")->num_rows(),
      3u);
}

TEST_F(DatabaseTest, OrAndNot) {
  EXPECT_EQ(
      Exec("SELECT ID FROM USERS WHERE AGE = 30 OR AGE = 35")->num_rows(),
      2u);
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE NOT (AGE = 25)")->num_rows(),
            2u);
}

TEST_F(DatabaseTest, Aggregates) {
  auto rs = Exec(
      "SELECT COUNT(*) AS N, MIN(AGE) AS MN, MAX(AGE) AS MX, SUM(AGE) AS "
      "S, AVG(AGE) AS A FROM USERS");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).AsInt(), 4);
  EXPECT_EQ(rs->At(0, 1).AsInt(), 25);
  EXPECT_EQ(rs->At(0, 2).AsInt(), 35);
  EXPECT_EQ(rs->At(0, 3).AsInt(), 115);
  EXPECT_DOUBLE_EQ(rs->At(0, 4).ToDouble(), 115.0 / 4);
}

TEST_F(DatabaseTest, AggregateOnEmptyInput) {
  auto rs = Exec("SELECT COUNT(*) AS N, MAX(AGE) AS M FROM USERS WHERE "
                 "AGE > 100");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).AsInt(), 0);
  EXPECT_TRUE(rs->At(0, 1).is_null());
}

TEST_F(DatabaseTest, GroupBy) {
  auto rs = Exec(
      "SELECT AGE, COUNT(*) AS N FROM USERS GROUP BY AGE ORDER BY AGE");
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->At(0, 0).AsInt(), 25);
  EXPECT_EQ(rs->At(0, 1).AsInt(), 2);
}

TEST_F(DatabaseTest, GroupByOrderByAggregateAlias) {
  auto rs = Exec(
      "SELECT USER_ID, SUM(AMOUNT) AS TOTAL FROM ORDERS GROUP BY USER_ID "
      "ORDER BY TOTAL DESC LIMIT 2");
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(rs->At(0, 0).AsInt(), 1);  // alice: 29.98
}

TEST_F(DatabaseTest, ExpressionsOverAggregates) {
  // The bestseller-window pattern: arithmetic over an aggregate result.
  auto rs = Exec("SELECT MAX(AGE) AS MX, MAX(AGE) - 10 AS MX10 FROM USERS");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).AsInt(), 35);
  EXPECT_EQ(rs->At(0, 1).AsInt(), 25);

  auto ratio = Exec("SELECT SUM(AGE) / COUNT(*) AS MEAN_AGE FROM USERS");
  EXPECT_DOUBLE_EQ(ratio->At(0, 0).ToDouble(), 115.0 / 4);
}

TEST_F(DatabaseTest, ExpressionsOverAggregatesWithGroupBy) {
  auto rs = Exec(
      "SELECT USER_ID, SUM(AMOUNT) + 1 AS T1 FROM ORDERS GROUP BY USER_ID "
      "ORDER BY USER_ID");
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_NEAR(rs->At(0, 1).ToDouble(), 30.98, 1e-9);
}

TEST_F(DatabaseTest, CountDistinct) {
  auto rs = Exec("SELECT COUNT(DISTINCT AGE) AS N FROM USERS");
  EXPECT_EQ(rs->At(0, 0).AsInt(), 3);
}

TEST_F(DatabaseTest, SelectDistinct) {
  auto rs = Exec("SELECT DISTINCT AGE FROM USERS");
  EXPECT_EQ(rs->num_rows(), 3u);
}

TEST_F(DatabaseTest, CommaJoin) {
  auto rs = Exec(
      "SELECT NAME, AMOUNT FROM USERS, ORDERS WHERE USER_ID = ID AND "
      "ID = 1 ORDER BY AMOUNT");
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(rs->At(0, 0).AsString(), "alice");
  EXPECT_DOUBLE_EQ(rs->At(0, 1).ToDouble(), 9.99);
}

TEST_F(DatabaseTest, ExplicitJoin) {
  auto rs = Exec(
      "SELECT NAME, O_ID FROM USERS JOIN ORDERS ON USER_ID = ID WHERE "
      "NAME = 'bob'");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 1).AsInt(), 102);
}

TEST_F(DatabaseTest, JoinWithAliases) {
  auto rs = Exec(
      "SELECT U.NAME, O.AMOUNT FROM USERS U, ORDERS O WHERE O.USER_ID = "
      "U.ID AND U.ID = 3");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rs->At(0, 1).ToDouble(), 7.5);
}

TEST_F(DatabaseTest, JoinAggregate) {
  auto rs = Exec(
      "SELECT NAME, SUM(AMOUNT) AS TOTAL FROM USERS, ORDERS WHERE USER_ID "
      "= ID GROUP BY NAME ORDER BY TOTAL DESC");
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->At(0, 0).AsString(), "alice");
}

TEST_F(DatabaseTest, OrderByMultipleKeys) {
  auto rs = Exec("SELECT NAME FROM USERS ORDER BY AGE, NAME DESC");
  ASSERT_EQ(rs->num_rows(), 4u);
  EXPECT_EQ(rs->At(0, 0).AsString(), "dave");  // age 25, name desc
  EXPECT_EQ(rs->At(1, 0).AsString(), "bob");
}

TEST_F(DatabaseTest, Limit) {
  EXPECT_EQ(Exec("SELECT ID FROM USERS LIMIT 2")->num_rows(), 2u);
  EXPECT_EQ(Exec("SELECT ID FROM USERS LIMIT 0")->num_rows(), 0u);
}

TEST_F(DatabaseTest, UpdateWithArithmetic) {
  auto rs = Exec("UPDATE USERS SET BALANCE = BALANCE + 5.0 WHERE ID = 1");
  EXPECT_EQ(rs->affected_rows(), 1u);
  auto check = Exec("SELECT BALANCE FROM USERS WHERE ID = 1");
  EXPECT_DOUBLE_EQ(check->At(0, 0).ToDouble(), 15.5);
}

TEST_F(DatabaseTest, UpdateMaintainsIndex) {
  Exec("UPDATE USERS SET NAME = 'zed' WHERE ID = 1");
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE NAME = 'zed'")->num_rows(),
            1u);
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE NAME = 'alice'")->num_rows(),
            0u);
}

TEST_F(DatabaseTest, DeleteRemovesRows) {
  auto rs = Exec("DELETE FROM ORDERS WHERE USER_ID = 1");
  EXPECT_EQ(rs->affected_rows(), 2u);
  EXPECT_EQ(Exec("SELECT O_ID FROM ORDERS")->num_rows(), 2u);
  // Index no longer finds deleted rows.
  EXPECT_EQ(Exec("SELECT O_ID FROM ORDERS WHERE USER_ID = 1")->num_rows(),
            0u);
}

TEST_F(DatabaseTest, InsertThenVisible) {
  Exec("INSERT INTO USERS (ID, NAME, AGE, BALANCE) VALUES (9, 'eve', 40, "
       "1.0)");
  EXPECT_EQ(Exec("SELECT NAME FROM USERS WHERE ID = 9")->At(0, 0).AsString(),
            "eve");
}

TEST_F(DatabaseTest, VersionsBumpOnWritesOnly) {
  uint64_t v0 = db_.TableVersion("USERS");
  uint64_t orders_v0 = db_.TableVersion("ORDERS");
  Exec("SELECT * FROM USERS");
  EXPECT_EQ(db_.TableVersion("USERS"), v0);
  Exec("UPDATE USERS SET AGE = 31 WHERE ID = 1");
  EXPECT_EQ(db_.TableVersion("USERS"), v0 + 1);
  Exec("INSERT INTO USERS (ID, NAME, AGE, BALANCE) VALUES (10, 'f', 1, "
       "0.0)");
  EXPECT_EQ(db_.TableVersion("USERS"), v0 + 2);
  Exec("DELETE FROM USERS WHERE ID = 10");
  EXPECT_EQ(db_.TableVersion("USERS"), v0 + 3);
  // Other tables unaffected.
  EXPECT_EQ(db_.TableVersion("ORDERS"), orders_v0);
}

TEST_F(DatabaseTest, ErrorsSurface) {
  EXPECT_FALSE(db_.Execute("SELECT X FROM NOPE").ok());
  EXPECT_FALSE(db_.Execute("SELECT NOPE_COL FROM USERS").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO USERS (ID) VALUES (1, 2)").ok());
  EXPECT_FALSE(db_.Execute("UPDATE USERS SET NOPE = 1").ok());
}

TEST_F(DatabaseTest, DuplicateTableRejected) {
  Schema s("USERS", {{"X", ValueType::kInt}});
  EXPECT_FALSE(db_.CreateTable(std::move(s)).ok());
}

TEST_F(DatabaseTest, NullHandling) {
  Exec("INSERT INTO USERS (ID, NAME, AGE, BALANCE) VALUES (11, 'n', NULL, "
       "NULL)");
  // NULL never matches comparisons.
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE AGE = NULL")->num_rows(), 0u);
  auto rs = Exec("SELECT ID FROM USERS WHERE AGE IS NULL");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).AsInt(), 11);
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE AGE IS NOT NULL")->num_rows(),
            4u);
  // Aggregates skip NULLs.
  EXPECT_EQ(Exec("SELECT COUNT(AGE) AS N FROM USERS")->At(0, 0).AsInt(), 4);
}

TEST_F(DatabaseTest, MultiColumnIndex) {
  Schema s("COMP", {{"A", ValueType::kInt},
                    {"B", ValueType::kInt},
                    {"V", ValueType::kString}});
  s.AddIndex("PRIMARY", {"A", "B"});
  ASSERT_TRUE(db_.CreateTable(std::move(s)).ok());
  for (int a = 1; a <= 10; ++a) {
    for (int b = 1; b <= 10; ++b) {
      Exec("INSERT INTO COMP (A, B, V) VALUES (" + std::to_string(a) + ", " +
           std::to_string(b) + ", 'v')");
    }
  }
  auto rs = Exec("SELECT V FROM COMP WHERE A = 3 AND B = 7");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->rows_examined(), 1u);  // composite index probe
}

TEST_F(DatabaseTest, RowsExaminedGrowsWithScans) {
  auto indexed = Exec("SELECT * FROM USERS WHERE ID = 1");
  auto scanned = Exec("SELECT * FROM USERS WHERE AGE = 30");
  EXPECT_LT(indexed->rows_examined(), scanned->rows_examined());
}

TEST_F(DatabaseTest, StatsAccumulate) {
  auto s0 = db_.stats();
  Exec("SELECT * FROM USERS");
  Exec("UPDATE USERS SET AGE = 1 WHERE ID = 2");
  auto s1 = db_.stats();
  EXPECT_EQ(s1.reads, s0.reads + 1);
  EXPECT_EQ(s1.writes, s0.writes + 1);
}


/// Rows/cells of two result sets match exactly (order included).
void ExpectSameRows(const common::ResultSetPtr& a,
                    const common::ResultSetPtr& b) {
  ASSERT_EQ(a->num_rows(), b->num_rows());
  ASSERT_EQ(a->num_columns(), b->num_columns());
  for (size_t r = 0; r < a->num_rows(); ++r) {
    for (size_t c = 0; c < a->num_columns(); ++c) {
      EXPECT_EQ(a->At(r, c), b->At(r, c)) << "row " << r << " col " << c;
    }
  }
}

TEST_F(DatabaseTest, SemijoinPrefilterMatchesScanPlan) {
  // Leading relation USERS is unindexed for this shape; ORDERS carries its
  // own filter plus a column equality USERS indexes (PRIMARY on ID), so
  // the pre-filter drives USERS candidates from ORDERS survivors.
  const std::string q =
      "SELECT NAME, AMOUNT FROM USERS, ORDERS "
      "WHERE ID = USER_ID AND AMOUNT > 8.0";
  auto semi = ExecCounted(q);
  db_.set_semijoin_prefilter(false);
  auto scan = ExecCounted(q);
  ExpectSameRows(scan, semi);
  // The pre-filter examines ORDERS once plus the probed USERS rows,
  // instead of USERS x ORDERS.
  EXPECT_LT(semi->rows_examined(), scan->rows_examined());
  // Both charge what the scan examines: 4 USERS rows + 4 ORDERS probes.
  EXPECT_EQ(scan->rows_examined(), 8u);
  EXPECT_EQ(scan->cost_rows(), scan->rows_examined());
  EXPECT_EQ(semi->cost_rows(), scan->rows_examined());
}

TEST_F(DatabaseTest, SemijoinPrefilterSkipsWhenInnerHasNoFilter) {
  // No single-relation conjunct on ORDERS: the scan plan stays (equal
  // rows_examined), and results are unchanged.
  const std::string q =
      "SELECT NAME, AMOUNT FROM USERS, ORDERS WHERE ID = USER_ID";
  auto semi = ExecCounted(q);
  db_.set_semijoin_prefilter(false);
  auto scan = ExecCounted(q);
  ExpectSameRows(scan, semi);
  EXPECT_EQ(semi->rows_examined(), scan->rows_examined());
  EXPECT_EQ(semi->cost_rows(), scan->rows_examined());
}

TEST_F(DatabaseTest, SemijoinCostWalksStepsBeforeTheInnerRelation) {
  // The pre-filter relation O is the third step, so for every USERS row
  // it skips the scan plan still walks V (no index on AGE) and, for the V
  // rows passing V.AGE = U.AGE, probes O. cost_rows must count that walk.
  const std::string q =
      "SELECT U.NAME, V.NAME, O.AMOUNT FROM USERS U, USERS V, ORDERS O "
      "WHERE V.AGE = U.AGE AND U.ID = O.USER_ID AND O.AMOUNT > 8.0";
  auto semi = ExecCounted(q);
  db_.set_semijoin_prefilter(false);
  auto scan = ExecCounted(q);
  ExpectSameRows(scan, semi);
  ASSERT_EQ(semi->num_rows(), 2u);
  // 4 U rows + 4 V rows per U row + one O probe per (U, V) age match.
  EXPECT_EQ(scan->rows_examined(), 25u);
  EXPECT_LT(semi->rows_examined(), scan->rows_examined());
  EXPECT_EQ(semi->cost_rows(), scan->rows_examined());
}

TEST_F(DatabaseTest, SemijoinFallbackCountsLikeTheScanPlan) {
  // The inner filter's placeholder is unbound, so the pre-filter errors on
  // the first ORDERS row and the executor falls back to the scan. No USERS
  // row passes AGE > 100, so the scan never reaches the failing conjunct:
  // the statement succeeds and examines only the 4 USERS rows.
  const std::string q =
      "SELECT NAME, AMOUNT FROM USERS, ORDERS "
      "WHERE AGE > 100 AND ID = USER_ID AND AMOUNT > ?";
  auto semi = ExecCounted(q);
  db_.set_semijoin_prefilter(false);
  auto scan = ExecCounted(q);
  ASSERT_NE(semi, nullptr);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(semi->num_rows(), 0u);
  EXPECT_EQ(scan->rows_examined(), 4u);
  EXPECT_EQ(semi->rows_examined(), scan->rows_examined());
  EXPECT_EQ(semi->cost_rows(), scan->rows_examined());
}

TEST_F(DatabaseTest, InListProbeMatchesScanPlan) {
  const std::string q =
      "SELECT NAME FROM USERS WHERE ID IN (1, 3, 99) ORDER BY NAME";
  auto probed = ExecCounted(q);
  db_.set_semijoin_prefilter(false);
  auto scan = ExecCounted(q);
  ExpectSameRows(scan, probed);
  EXPECT_LT(probed->rows_examined(), scan->rows_examined());
  EXPECT_EQ(probed->cost_rows(), scan->rows_examined());
  ASSERT_EQ(probed->num_rows(), 2u);
  EXPECT_EQ(probed->At(0, 0).AsString(), "alice");
  EXPECT_EQ(probed->At(1, 0).AsString(), "carol");
}

TEST_F(DatabaseTest, NegatedInListKeepsScanPlan) {
  const std::string q =
      "SELECT NAME FROM USERS WHERE ID NOT IN (1, 3) ORDER BY NAME";
  auto probed = ExecCounted(q);
  db_.set_semijoin_prefilter(false);
  auto scan = ExecCounted(q);
  ExpectSameRows(scan, probed);
  EXPECT_EQ(probed->rows_examined(), scan->rows_examined());
  EXPECT_EQ(probed->cost_rows(), scan->rows_examined());
}

TEST_F(DatabaseTest, CostRowsOnlyWhenAsked) {
  const std::string q = "SELECT NAME FROM USERS WHERE ID IN (1, 3)";
  EXPECT_EQ(Exec(q)->cost_rows(), 0u);
  EXPECT_EQ(ExecCounted(q)->cost_rows(), 4u);
}

TEST_F(DatabaseTest, SingleRelationPredicateMemoKeepsResults) {
  // The per-RowId memo reuses LIKE verdicts across outer rows; the join
  // result must match the naive evaluation.
  auto rs = Exec(
      "SELECT NAME, AMOUNT FROM ORDERS, USERS "
      "WHERE USER_ID = ID AND NAME LIKE 'a%'");
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(rs->At(0, 0).AsString(), "alice");
  EXPECT_EQ(rs->At(1, 0).AsString(), "alice");
}

}  // namespace
}  // namespace apollo::db

