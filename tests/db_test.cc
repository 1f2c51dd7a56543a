#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

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

TEST_F(DatabaseTest, NullProbeKeyJoinsNothing) {
  // The index probe calls two NULLs equal; `=` does not, so the join
  // conjunct behind a NULL probe key must still be evaluated.
  Schema a("A", {{"ID", ValueType::kInt}, {"K", ValueType::kInt}});
  Schema b("B", {{"K", ValueType::kInt}, {"V", ValueType::kString}});
  b.AddIndex("K_IDX", {"K"});
  ASSERT_TRUE(db_.CreateTable(std::move(a)).ok());
  ASSERT_TRUE(db_.CreateTable(std::move(b)).ok());
  Exec("INSERT INTO A (ID, K) VALUES (1, NULL), (2, 7)");
  Exec("INSERT INTO B (K, V) VALUES (NULL, 'null'), (7, 'seven')");
  auto rs = Exec("SELECT ID, V FROM A, B WHERE B.K = A.K");
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 1).AsString(), "seven");
  EXPECT_EQ(Exec("SELECT V FROM B WHERE K = NULL")->num_rows(), 0u);
  // A second equality on a probed column is not the probe's, so it is
  // still checked.
  EXPECT_EQ(
      Exec("SELECT ID FROM USERS WHERE NAME = 'bob' AND NAME = 'alice'")
          ->num_rows(),
      0u);
}

TEST_F(DatabaseTest, FailedMultiRowInsertChangesNothing) {
  const uint64_t v0 = db_.TableVersion("USERS");
  // The second row's NAME is an INT: nothing may be inserted.
  EXPECT_FALSE(db_.Execute("INSERT INTO USERS (ID, NAME, AGE, BALANCE) "
                           "VALUES (20, 'x', 1, 1.0), (21, 3, 1, 1.0)")
                   .ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO USERS (ID, NAME) "
                           "VALUES (22, 'y'), (23)")
                   .ok());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM USERS")->At(0, 0).AsInt(), 4);
  EXPECT_EQ(Exec("SELECT ID FROM USERS WHERE ID = 20")->num_rows(), 0u);
  EXPECT_EQ(db_.TableVersion("USERS"), v0);
}

TEST_F(DatabaseTest, UpdateChecksEveryRowBeforeChangingAny) {
  Schema t("T", {{"A", ValueType::kInt}, {"B", ValueType::kString}});
  ASSERT_TRUE(db_.CreateTable(std::move(t)).ok());
  Exec("INSERT INTO T (A, B) VALUES (5, NULL), (6, 'x')");
  const uint64_t v0 = db_.TableVersion("T");
  // Row 1 would take NULL, which fits; row 2 a string, which INSERT
  // rejects for an INT column.
  EXPECT_FALSE(db_.Execute("UPDATE T SET A = B").ok());
  EXPECT_FALSE(db_.Execute("UPDATE T SET A = 'str' WHERE A = 6").ok());
  auto rs = Exec("SELECT A FROM T");
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(rs->At(0, 0).ToSqlLiteral(), "5");
  EXPECT_EQ(rs->At(1, 0).ToSqlLiteral(), "6");
  EXPECT_EQ(db_.TableVersion("T"), v0);
  // Numbers still convert to the column's numeric type.
  Exec("UPDATE T SET A = 7.9 WHERE A = 6");
  EXPECT_EQ(Exec("SELECT A FROM T WHERE A = 7")->num_rows(), 1u);
}

TEST(HashIndexTest, LookupsMatchANewestFirstModel) {
  // Random churn over keys with many duplicates, through several growths
  // and shrinks of the slot array. Every lookup returns the ids of its key
  // newest first, an id re-added by UpdateRow counting as newest.
  Schema s("CHURN", {{"K", ValueType::kInt},
                     {"S", ValueType::kString},
                     {"V", ValueType::kInt}});
  s.AddIndex("K_IDX", {"K"});
  s.AddIndex("KS_IDX", {"K", "S"});
  Table t(std::move(s));
  const int k_idx = t.FindUsableIndex({0});
  const int ks_idx = t.FindUsableIndex({0, 1});
  ASSERT_GE(k_idx, 0);
  ASSERT_GE(ks_idx, 0);
  ASSERT_NE(k_idx, ks_idx);

  std::mt19937 rng(7);
  // Half the rows share 8 hot keys; the rest spread over 3000.
  auto draw_key = [&] {
    return static_cast<int64_t>(rng() % 2 == 0 ? rng() % 8 : rng() % 3000);
  };
  auto draw_s = [&] { return "s" + std::to_string(rng() % 3); };
  std::map<int64_t, std::vector<RowId>> by_k;  // oldest first
  std::map<std::pair<int64_t, std::string>, std::vector<RowId>> by_ks;
  auto unlink = [](std::vector<RowId>& ids, RowId id) {
    ids.erase(std::find(ids.begin(), ids.end(), id));
  };
  auto check = [&] {
    std::vector<RowId> got;
    for (int64_t k = 0; k < 3000; ++k) {
      const Value kv = Value::Int(k);
      const Value* key[] = {&kv};
      got.clear();
      t.IndexLookup(k_idx, key, &got);
      const std::vector<RowId>& want = by_k[k];
      ASSERT_EQ(got, std::vector<RowId>(want.rbegin(), want.rend()))
          << "K = " << k;
    }
    for (const auto& [ks, want] : by_ks) {
      const Value kv = Value::Int(ks.first);
      const Value sv = Value::Str(ks.second);
      const Value* key[] = {&kv, &sv};
      got.clear();
      t.IndexLookup(ks_idx, key, &got);
      ASSERT_EQ(got, std::vector<RowId>(want.rbegin(), want.rend()))
          << "K = " << ks.first << ", S = " << ks.second;
    }
  };

  std::vector<RowId> live;
  for (int round = 0; round < 6; ++round) {
    // Grow: insert 1500 rows.
    for (int i = 0; i < 1500; ++i) {
      const int64_t k = draw_key();
      const std::string sv = draw_s();
      const RowId id = static_cast<RowId>(t.NumSlots());
      ASSERT_TRUE(
          t.Insert({Value::Int(k), Value::Str(sv), Value::Int(i)}).ok());
      by_k[k].push_back(id);
      by_ks[{k, sv}].push_back(id);
      live.push_back(id);
    }
    // Churn: re-key, touch an unindexed column, delete.
    for (int i = 0; i < 1500 && !live.empty(); ++i) {
      const size_t at = rng() % live.size();
      const RowId id = live[at];
      const int64_t k = t.At(id)[0].AsInt();
      const std::string sv = t.At(id)[1].AsString();
      switch (rng() % 4) {
        case 0: {  // new K: relinked in both indexes
          const int64_t nk = draw_key();
          t.UpdateRow(id, {0}, {Value::Int(nk)});
          unlink(by_k[k], id);
          unlink(by_ks[{k, sv}], id);
          by_k[nk].push_back(id);
          by_ks[{nk, sv}].push_back(id);
          break;
        }
        case 1: {  // new S: only KS relinks the row
          const std::string ns = draw_s();
          t.UpdateRow(id, {1}, {Value::Str(ns)});
          unlink(by_ks[{k, sv}], id);
          by_ks[{k, ns}].push_back(id);
          break;
        }
        case 2:  // unindexed column: order unchanged
          t.UpdateRow(id, {2}, {Value::Int(-1)});
          break;
        default:
          t.DeleteRow(id);
          unlink(by_k[k], id);
          unlink(by_ks[{k, sv}], id);
          live[at] = live.back();
          live.pop_back();
          break;
      }
    }
    check();
    if (HasFatalFailure()) return;
  }
  // Shrink to nothing: every lookup comes back empty.
  for (RowId id : live) {
    const int64_t k = t.At(id)[0].AsInt();
    unlink(by_k[k], id);
    unlink(by_ks[{k, t.At(id)[1].AsString()}], id);
    t.DeleteRow(id);
  }
  EXPECT_EQ(t.num_rows(), 0u);
  check();
}

/// A table with ordered indexes on a string and an int column, mixed-case
/// titles, tied and NULL keys.
class OrderedIndexTest : public DatabaseTest {
 protected:
  void SetUp() override {
    DatabaseTest::SetUp();
    Schema books("BOOKS", {{"ID", ValueType::kInt},
                           {"TITLE", ValueType::kString},
                           {"YEAR", ValueType::kInt}});
    books.AddIndex("PRIMARY", {"ID"});
    ASSERT_TRUE(books.AddOrderedIndex("TITLE_ORD", "TITLE"));
    ASSERT_TRUE(books.AddOrderedIndex("YEAR_ORD", "year"));
    EXPECT_FALSE(books.AddOrderedIndex("NOPE_ORD", "NOPE"));
    ASSERT_TRUE(db_.CreateTable(std::move(books)).ok());
    Exec("INSERT INTO BOOKS (ID, TITLE, YEAR) VALUES "
         "(1, 'APPLE PIE', 2001), (2, 'apple tart', 1999), "
         "(3, 'Applesauce', 2001), (4, 'BANANA', NULL), (5, 'A_B', 2005), "
         "(6, 'A%C', 1999), (7, 'AXB', 2001), (8, NULL, 2003), "
         "(9, 'apricot', NULL), (10, 'ABCDEFGHIJKL', 2005)");
  }

  /// Runs `q` with the probe plans and with the reference scan plan, both
  /// counting cost; expects the same cells and the scan's cost. Returns
  /// {probe, scan}.
  std::pair<common::ResultSetPtr, common::ResultSetPtr> ProbeAndScan(
      const std::string& q) {
    auto probe = ExecCounted(q);
    db_.set_semijoin_prefilter(false);
    auto scan = ExecCounted(q);
    db_.set_semijoin_prefilter(true);
    if (probe == nullptr || scan == nullptr) return {probe, scan};
    ExpectSameRows(scan, probe);
    EXPECT_EQ(scan->cost_rows(), scan->rows_examined()) << q;
    EXPECT_EQ(probe->cost_rows(), scan->rows_examined()) << q;
    EXPECT_LE(probe->rows_examined(), scan->rows_examined()) << q;
    return {probe, scan};
  }

  /// `limited` is the first rows of `full`, cell for cell.
  void ExpectPrefix(const common::ResultSetPtr& limited,
                    const common::ResultSetPtr& full, size_t n) {
    ASSERT_NE(limited, nullptr);
    ASSERT_NE(full, nullptr);
    ASSERT_EQ(limited->num_rows(), std::min(n, full->num_rows()));
    ASSERT_EQ(limited->columns(), full->columns());
    for (size_t r = 0; r < limited->num_rows(); ++r) {
      for (size_t c = 0; c < limited->num_columns(); ++c) {
        EXPECT_EQ(limited->At(r, c).type(), full->At(r, c).type());
        EXPECT_EQ(limited->At(r, c), full->At(r, c))
            << "row " << r << " col " << c;
      }
    }
  }
};

TEST_F(OrderedIndexTest, PrefixLikeFoldsCaseAsTheScanDoes) {
  // Lowercase pattern over mixed-case data: every case variant is read.
  auto [probe, scan] = ProbeAndScan(
      "SELECT ID FROM BOOKS WHERE TITLE LIKE 'apple%' ORDER BY ID");
  ASSERT_EQ(probe->num_rows(), 3u);
  EXPECT_EQ(probe->At(0, 0).AsInt(), 1);
  EXPECT_EQ(probe->At(2, 0).AsInt(), 3);
  EXPECT_EQ(probe->rows_examined(), 3u);  // just the three matches
  EXPECT_EQ(scan->rows_examined(), 10u);

  auto upper = ProbeAndScan("SELECT ID FROM BOOKS WHERE TITLE LIKE 'APPLE %'");
  ASSERT_EQ(upper.first->num_rows(), 2u);  // APPLE PIE, apple tart
  EXPECT_EQ(upper.first->rows_examined(), 2u);

  auto none = ProbeAndScan("SELECT ID FROM BOOKS WHERE TITLE LIKE 'zz%'");
  EXPECT_EQ(none.first->num_rows(), 0u);
  EXPECT_EQ(none.first->rows_examined(), 0u);
}

TEST_F(OrderedIndexTest, PrefixStopsAtTheFirstWildcard) {
  // '_' and '%' inside the pattern end the prefix at 'a': every A/a title
  // is a candidate and the LIKE conjunct decides.
  auto under = ProbeAndScan("SELECT ID FROM BOOKS WHERE TITLE LIKE 'a_b%'");
  ASSERT_EQ(under.first->num_rows(), 2u);  // A_B, AXB
  EXPECT_EQ(under.first->rows_examined(), 8u);
  auto pct = ProbeAndScan("SELECT ID FROM BOOKS WHERE TITLE LIKE 'A%C'");
  ASSERT_EQ(pct.first->num_rows(), 1u);
  EXPECT_EQ(pct.first->At(0, 0).AsInt(), 6);
  EXPECT_EQ(pct.first->rows_examined(), 8u);
}

TEST_F(OrderedIndexTest, NoPrefixOrOverCapPrefixScans) {
  auto leading = ProbeAndScan("SELECT ID FROM BOOKS WHERE TITLE LIKE '%pie'");
  EXPECT_EQ(leading.first->num_rows(), 1u);
  EXPECT_EQ(leading.first->rows_examined(), 10u);
  // Eleven letters would be 2^11 case variants: scan instead.
  auto over = ProbeAndScan(
      "SELECT ID FROM BOOKS WHERE TITLE LIKE 'abcdefghijk%'");
  EXPECT_EQ(over.first->num_rows(), 1u);
  EXPECT_EQ(over.first->rows_examined(), 10u);
  // Ten letters still take the ranges.
  auto at_cap = ProbeAndScan(
      "SELECT ID FROM BOOKS WHERE TITLE LIKE 'abcdefghij%'");
  EXPECT_EQ(at_cap.first->num_rows(), 1u);
  EXPECT_EQ(at_cap.first->rows_examined(), 1u);
  // NOT LIKE and a column with no ordered index keep the scan.
  auto negated =
      ProbeAndScan("SELECT ID FROM BOOKS WHERE TITLE NOT LIKE 'apple%'");
  EXPECT_EQ(negated.first->num_rows(), 6u);  // NULL matches neither
  EXPECT_EQ(negated.first->rows_examined(), 10u);
  auto unindexed = ProbeAndScan("SELECT ID FROM USERS WHERE NAME LIKE 'a%'");
  EXPECT_EQ(unindexed.first->rows_examined(), 4u);
}

TEST_F(OrderedIndexTest, PrefixLikeBindsPlaceholders) {
  auto stmt = sql::Parse("SELECT ID FROM BOOKS WHERE TITLE LIKE ? ORDER BY ID");
  ASSERT_TRUE(stmt.ok());
  std::vector<Value> params = {Value::Str("applE%")};
  auto rs = db_.ExecutePrepared(**stmt, params, CostRows::kCount);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ((*rs)->num_rows(), 3u);
  EXPECT_EQ((*rs)->rows_examined(), 3u);
  EXPECT_EQ((*rs)->cost_rows(), 10u);
  // Unbound, the range cannot be read: the scan reports the error.
  EXPECT_FALSE(db_.Execute("SELECT ID FROM BOOKS WHERE TITLE LIKE ?").ok());
}

TEST_F(OrderedIndexTest, JoinStepUsesPrefixRange) {
  // BOOKS is the inner step: no index drives it, so its LIKE is a range
  // per outer row, and the cost is still the scan's.
  auto [probe, scan] = ProbeAndScan(
      "SELECT NAME, TITLE FROM USERS, BOOKS WHERE TITLE LIKE 'ap%' AND "
      "AGE = 25 ORDER BY TITLE");
  EXPECT_EQ(probe->num_rows(), 8u);  // 2 users x 4 titles
  EXPECT_LT(probe->rows_examined(), scan->rows_examined());
}

TEST_F(OrderedIndexTest, CountMinMaxReadTheIndexes) {
  auto [probe, scan] = ProbeAndScan(
      "SELECT COUNT(*) AS N, MIN(YEAR) AS LO, MAX(YEAR) AS HI, "
      "MIN(TITLE) AS FIRST, MAX(TITLE) AS LAST FROM BOOKS");
  ASSERT_EQ(probe->num_rows(), 1u);
  EXPECT_EQ(probe->columns()[1], "LO");
  EXPECT_EQ(probe->At(0, 0).AsInt(), 10);
  EXPECT_EQ(probe->At(0, 1).AsInt(), 1999);
  EXPECT_EQ(probe->At(0, 2).AsInt(), 2005);
  EXPECT_EQ(probe->At(0, 3).AsString(), "A%C");
  EXPECT_EQ(probe->At(0, 4).AsString(), "apricot");
  EXPECT_EQ(probe->rows_examined(), 4u);  // one row per MIN/MAX
  EXPECT_EQ(scan->rows_examined(), 10u);
  // COUNT(*) needs no index at all.
  auto count = ProbeAndScan("SELECT COUNT(*) FROM USERS");
  EXPECT_EQ(count.first->At(0, 0).AsInt(), 4);
  EXPECT_EQ(count.first->rows_examined(), 0u);
  // Other shapes keep the scan: a WHERE, an unindexed column, COUNT(col).
  for (const char* q : {"SELECT MAX(YEAR) FROM BOOKS WHERE ID > 3",
                        "SELECT MAX(AGE) FROM USERS",
                        "SELECT COUNT(TITLE) FROM BOOKS",
                        "SELECT MAX(YEAR) + 1 AS NEXT FROM BOOKS"}) {
    auto other = ProbeAndScan(q);
    EXPECT_EQ(other.first->rows_examined(), other.second->rows_examined())
        << q;
  }
  EXPECT_EQ(Exec("SELECT MAX(YEAR) FROM BOOKS LIMIT 0")->num_rows(), 0u);
  // An unknown column still fails on a non-empty table.
  EXPECT_FALSE(db_.Execute("SELECT MAX(NOPE) FROM BOOKS").ok());
}

TEST_F(OrderedIndexTest, CountAndMinMaxFollowWrites) {
  Exec("DELETE FROM BOOKS WHERE YEAR = 1999");
  Exec("UPDATE BOOKS SET YEAR = 1990 WHERE ID = 3");
  Exec("UPDATE BOOKS SET YEAR = 2000 WHERE ID = 5");
  Exec("DELETE FROM BOOKS WHERE ID = 10");
  auto [probe, scan] = ProbeAndScan(
      "SELECT COUNT(*) AS N, MIN(YEAR) AS LO, MAX(YEAR) AS HI, "
      "MAX(TITLE) AS LAST FROM BOOKS");
  EXPECT_EQ(probe->At(0, 0).AsInt(), 7);
  EXPECT_EQ(probe->At(0, 1).AsInt(), 1990);
  EXPECT_EQ(probe->At(0, 2).AsInt(), 2003);
  EXPECT_EQ(probe->At(0, 3).AsString(), "apricot");
}

TEST_F(OrderedIndexTest, MinMaxOfEmptyAndAllNullColumns) {
  Schema empty("EMPTY", {{"K", ValueType::kInt}});
  ASSERT_TRUE(empty.AddOrderedIndex("K_ORD", "K"));
  ASSERT_TRUE(db_.CreateTable(std::move(empty)).ok());
  auto [probe, scan] =
      ProbeAndScan("SELECT COUNT(*) AS N, MIN(K), MAX(K) FROM EMPTY");
  EXPECT_EQ(probe->At(0, 0).AsInt(), 0);
  EXPECT_TRUE(probe->At(0, 1).is_null());
  EXPECT_TRUE(probe->At(0, 2).is_null());

  Exec("INSERT INTO EMPTY (K) VALUES (NULL), (NULL)");
  auto nulls = ProbeAndScan("SELECT COUNT(*) AS N, MIN(K), MAX(K) FROM EMPTY");
  EXPECT_EQ(nulls.first->At(0, 0).AsInt(), 2);
  EXPECT_TRUE(nulls.first->At(0, 1).is_null());
  EXPECT_TRUE(nulls.first->At(0, 2).is_null());
  // MIN skips the NULLs, which sort first.
  Exec("INSERT INTO EMPTY (K) VALUES (7), (3)");
  auto mixed = ProbeAndScan("SELECT MIN(K), MAX(K) FROM EMPTY");
  EXPECT_EQ(mixed.first->At(0, 0).AsInt(), 3);
  EXPECT_EQ(mixed.first->At(0, 1).AsInt(), 7);
}

TEST_F(OrderedIndexTest, TableKeepsOrderThroughUpdatesAndDeletes) {
  // Enough rows to split blocks; keys inserted out of order, with ties.
  Schema s("KEYS", {{"K", ValueType::kString}, {"N", ValueType::kInt}});
  ASSERT_TRUE(s.AddOrderedIndex("K_ORD", "K"));
  Table t(std::move(s));
  ASSERT_EQ(t.FindOrderedIndex(0), 0);
  EXPECT_EQ(t.FindOrderedIndex(1), -1);
  EXPECT_EQ(t.FindUsableIndex({0}), -1);  // never an equality index
  auto key = [](int i) { return "K" + std::to_string((i * 7919) % 1500); };
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(t.Insert({Value::Str(key(i)), Value::Int(i)}).ok());
  }
  for (RowId id = 0; id < 3000; id += 3) t.DeleteRow(id);
  for (RowId id = 1; id < 3000; id += 5) {
    if (t.IsLive(id)) t.UpdateRow(id, {0}, {Value::Str("Z" + key(id))});
  }
  t.UpdateRow(2, {1}, {Value::Int(-1)});  // a column the index ignores

  std::vector<RowId> expected;
  for (RowId id = 0; id < t.NumSlots(); ++id) {
    if (t.IsLive(id)) expected.push_back(id);
  }
  std::sort(expected.begin(), expected.end(), [&](RowId a, RowId b) {
    const int c = t.At(a)[0].Compare(t.At(b)[0]);
    return c < 0 || (c == 0 && a < b);
  });
  std::vector<RowId> all;
  t.OrderedPrefixRows(0, "", &all);
  EXPECT_EQ(all, expected);
  EXPECT_EQ(*t.OrderedMin(0), expected.front());
  EXPECT_EQ(*t.OrderedMax(0), expected.back());

  std::vector<RowId> z;
  t.OrderedPrefixRows(0, "ZK1", &z);
  for (RowId id : z) EXPECT_EQ(t.At(id)[0].AsString().rfind("ZK1", 0), 0u);
  size_t want = 0;
  for (RowId id : expected) {
    want += t.At(id)[0].AsString().rfind("ZK1", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(z.size(), want);
  EXPECT_GT(want, 0u);

  for (RowId id : expected) t.DeleteRow(id);
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_FALSE(t.OrderedMin(0).has_value());
  EXPECT_FALSE(t.OrderedMax(0).has_value());
}

TEST_F(OrderedIndexTest, TopNIsTheStableSortPrefix) {
  // Tied keys, NULL keys (they sort first), mixed directions, outputs
  // that are column refs (projected lazily) and expressions (eagerly).
  const std::vector<std::string> shapes = {
      "SELECT ID, TITLE FROM BOOKS ORDER BY YEAR",
      "SELECT ID, TITLE FROM BOOKS ORDER BY YEAR DESC",
      "SELECT ID FROM BOOKS ORDER BY YEAR DESC, TITLE",
      "SELECT ID, YEAR FROM BOOKS ORDER BY YEAR, TITLE DESC",
      "SELECT * FROM BOOKS ORDER BY TITLE DESC",
      "SELECT ID, YEAR + 1 AS NEXT FROM BOOKS ORDER BY YEAR",
      "SELECT NAME, TITLE FROM USERS, BOOKS WHERE AGE = 25 "
      "ORDER BY YEAR DESC",
  };
  for (const std::string& q : shapes) {
    auto full = Exec(q);
    ASSERT_NE(full, nullptr) << q;
    for (size_t n : {0u, 1u, 2u, 3u, 5u, 9u, 10u, 11u, 40u}) {
      SCOPED_TRACE(q + " LIMIT " + std::to_string(n));
      ExpectPrefix(Exec(q + " LIMIT " + std::to_string(n)), full, n);
    }
  }
}

TEST_F(OrderedIndexTest, TopNFailsLikeTheFullSort) {
  // The first emitted row is projected even under LIMIT 0, so an unknown
  // output column fails as it does without the LIMIT.
  EXPECT_FALSE(db_.Execute("SELECT NOPE FROM BOOKS ORDER BY YEAR").ok());
  EXPECT_FALSE(
      db_.Execute("SELECT NOPE FROM BOOKS ORDER BY YEAR LIMIT 0").ok());
  EXPECT_FALSE(
      db_.Execute("SELECT ID, NOPE FROM BOOKS ORDER BY YEAR LIMIT 2").ok());
  // No row emitted: nothing is projected, with or without the LIMIT.
  EXPECT_TRUE(db_.Execute("SELECT NOPE FROM BOOKS WHERE ID > 99 "
                          "ORDER BY YEAR LIMIT 0")
                  .ok());
  // A failing order key fails on every row, kept or not.
  EXPECT_FALSE(
      db_.Execute("SELECT ID FROM BOOKS ORDER BY TITLE + 1 LIMIT 0").ok());
}

}  // namespace
}  // namespace apollo::db

