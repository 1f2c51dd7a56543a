#include <gtest/gtest.h>

#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/template.h"
#include "sql/template_cache.h"
#include "sql/token.h"

namespace apollo::sql {
namespace {

TEST(TokenizerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE x = 1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->front().text, "SELECT");
  EXPECT_EQ(tokens->back().type, TokenType::kEnd);
}

TEST(TokenizerTest, StringEscapes) {
  auto tokens = Tokenize("SELECT 'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].type, TokenType::kString);
  EXPECT_EQ((*tokens)[1].text, "it's");
}

TEST(TokenizerTest, UnterminatedString) {
  auto tokens = Tokenize("SELECT 'oops");
  EXPECT_FALSE(tokens.ok());
}

TEST(TokenizerTest, NumbersAndOperators) {
  auto tokens = Tokenize("1 2.5 <= >= <> != = < >");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[1].type, TokenType::kFloat);
  EXPECT_EQ((*tokens)[2].text, "<=");
  // != normalizes to <>
  EXPECT_EQ((*tokens)[5].text, "<>");
}

TEST(TokenizerTest, Placeholders) {
  auto tokens = Tokenize("WHERE a = ? AND b = @C_ID");
  ASSERT_TRUE(tokens.ok());
  int count = 0;
  for (const auto& t : *tokens) {
    if (t.type == TokenType::kPlaceholder) ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT C_ID FROM CUSTOMER WHERE C_UNAME = 'Bob'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->kind, StatementKind::kSelect);
  EXPECT_TRUE((*stmt)->IsReadOnly());
  auto tables = (*stmt)->TablesRead();
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0], "CUSTOMER");
}

TEST(ParserTest, SelectRoundTrips) {
  const char* queries[] = {
      "SELECT C_ID FROM CUSTOMER WHERE C_UNAME = 'Bob' AND C_PASSWD = 'x'",
      "SELECT MAX(O_ID) AS O_ID FROM ORDERS WHERE O_C_ID = 5",
      "SELECT * FROM ITEM WHERE I_ID IN (1, 2, 3)",
      "SELECT A, B FROM T WHERE X BETWEEN 1 AND 5 ORDER BY A DESC LIMIT 3",
      "SELECT COUNT(*) AS N FROM ITEM",
      "SELECT I_ID, SUM(OL_QTY) AS Q FROM ITEM, ORDER_LINE WHERE OL_I_ID = "
      "I_ID GROUP BY I_ID ORDER BY Q DESC LIMIT 50",
      "SELECT DISTINCT OL_W_ID, OL_I_ID FROM ORDER_LINE WHERE OL_O_ID >= 10 "
      "AND OL_O_ID < 30",
      "SELECT A FROM T WHERE S LIKE 'ab%'",
      "SELECT A FROM T WHERE B IS NOT NULL",
      "SELECT A FROM T JOIN U ON T.X = U.Y WHERE T.Z = 1",
  };
  for (const char* q : queries) {
    auto stmt = Parse(q);
    ASSERT_TRUE(stmt.ok()) << q << " -> " << stmt.status().ToString();
    std::string printed = PrintStatement(**stmt);
    auto reparsed = Parse(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ(PrintStatement(**reparsed), printed) << q;
  }
}

TEST(ParserTest, WriteStatements) {
  auto ins = Parse("INSERT INTO T (A, B) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ((*ins)->kind, StatementKind::kInsert);
  EXPECT_EQ((*ins)->insert->rows.size(), 2u);
  EXPECT_EQ((*ins)->TablesWritten()[0], "T");

  auto upd = Parse("UPDATE T SET A = A + 1, B = 'z' WHERE C = 3");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ((*upd)->kind, StatementKind::kUpdate);
  EXPECT_EQ((*upd)->update->assignments.size(), 2u);

  auto del = Parse("DELETE FROM T WHERE A = 1");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ((*del)->kind, StatementKind::kDelete);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(Parse("SELEC x FROM t").ok());
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES (1,)").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(Parse("").ok());
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = Parse("SELECT A FROM T WHERE X = 1 OR Y = 2 AND Z = 3");
  ASSERT_TRUE(stmt.ok());
  // AND binds tighter than OR: top node is OR.
  const Expr& w = *(*stmt)->select->where;
  EXPECT_EQ(w.kind, ExprKind::kBinary);
  EXPECT_EQ(w.op, BinOp::kOr);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto stmt = Parse("SELECT 2 + 3 * 4 AS V FROM T");
  ASSERT_TRUE(stmt.ok());
  const Expr& e = *(*stmt)->select->items[0].expr;
  ASSERT_EQ(e.kind, ExprKind::kBinary);
  EXPECT_EQ(e.op, BinOp::kAdd);  // * grouped under +
}

TEST(ParserTest, NegativeNumbersFold) {
  auto stmt = Parse("SELECT A FROM T WHERE X = -5");
  ASSERT_TRUE(stmt.ok());
  const Expr& rhs = *(*stmt)->select->where->children[1];
  ASSERT_EQ(rhs.kind, ExprKind::kLiteral);
  EXPECT_EQ(rhs.literal.AsInt(), -5);
}

TEST(ParserTest, JoinTables) {
  auto stmt = Parse(
      "SELECT A FROM T1, T2 JOIN T3 ON T3.X = T1.Y WHERE T1.A = T2.B");
  ASSERT_TRUE(stmt.ok());
  auto tables = (*stmt)->TablesRead();
  EXPECT_EQ(tables.size(), 3u);
}

TEST(TemplateTest, ConstantsStripped) {
  auto t1 = Templatize(
      "SELECT C_ID FROM CUSTOMER WHERE C_UNAME = 'Bob' AND C_PASSWD = 'p'");
  auto t2 = Templatize(
      "SELECT C_ID FROM CUSTOMER WHERE C_UNAME = 'Alice' AND C_PASSWD = "
      "'q'");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  // Same template (paper Section 2.1).
  EXPECT_EQ(t1->fingerprint, t2->fingerprint);
  EXPECT_EQ(t1->template_text, t2->template_text);
  EXPECT_NE(t1->canonical_text, t2->canonical_text);
  ASSERT_EQ(t1->params.size(), 2u);
  EXPECT_EQ(t1->params[0].AsString(), "Bob");
  EXPECT_EQ(t2->params[1].AsString(), "q");
}

TEST(TemplateTest, WhitespaceAndCaseInsensitive) {
  auto t1 = Templatize("select   a from T where x=3");
  auto t2 = Templatize("SELECT A FROM t WHERE X = 99");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t1->fingerprint, t2->fingerprint);
}

TEST(TemplateTest, DifferentShapesDiffer) {
  auto t1 = Templatize("SELECT A FROM T WHERE X = 1");
  auto t2 = Templatize("SELECT A FROM T WHERE Y = 1");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_NE(t1->fingerprint, t2->fingerprint);
}

TEST(TemplateTest, ReadWriteClassification) {
  auto r = Templatize("SELECT A FROM T");
  auto w = Templatize("UPDATE T SET A = 1 WHERE B = 2");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(r->read_only);
  EXPECT_FALSE(w->read_only);
  EXPECT_EQ(w->tables_written[0], "T");
}

TEST(TemplateTest, InstantiateRoundTrip) {
  auto info = Templatize("SELECT A FROM T WHERE X = 42 AND S = 'hi'");
  ASSERT_TRUE(info.ok());
  auto sql = Instantiate(info->template_text, info->params);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(*sql, info->canonical_text);
}

TEST(TemplateTest, InstantiateArityChecked) {
  auto info = Templatize("SELECT A FROM T WHERE X = 1 AND Y = 2");
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(
      Instantiate(info->template_text, {common::Value::Int(1)}).ok());
  EXPECT_FALSE(Instantiate(info->template_text,
                           {common::Value::Int(1), common::Value::Int(2),
                            common::Value::Int(3)})
                   .ok());
}

TEST(TemplateTest, StringParamsQuoted) {
  auto info = Templatize("SELECT A FROM T WHERE S = 'x'");
  ASSERT_TRUE(info.ok());
  auto sql = Instantiate(info->template_text,
                         {common::Value::Str("it's")});
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("'it''s'"), std::string::npos);
}

TEST(TemplateTest, ParamsInPrintOrder) {
  auto info = Templatize("SELECT A FROM T WHERE X = 7 AND Y = 'b' LIMIT 5");
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->params.size(), 2u);
  EXPECT_EQ(info->params[0].AsInt(), 7);
  EXPECT_EQ(info->params[1].AsString(), "b");
  // LIMIT count is structural, not a parameter.
  EXPECT_NE(info->template_text.find("LIMIT 5"), std::string::npos);
}

TEST(TemplateTest, StatementCloneIsDeep) {
  auto stmt = Parse(
      "SELECT I_ID, SUM(OL_QTY) AS Q FROM ITEM, ORDER_LINE WHERE OL_I_ID = "
      "I_ID AND OL_O_ID > 7 GROUP BY I_ID ORDER BY Q DESC LIMIT 50");
  ASSERT_TRUE(stmt.ok());
  auto clone = (*stmt)->Clone();
  EXPECT_EQ(PrintStatement(**stmt), PrintStatement(*clone));
}

// ---- TemplateCache as the template catalog ----

TEST(TemplateCatalogTest, AdmitDeduplicates) {
  TemplateCache cache;
  auto a1 = cache.Admit("SELECT A FROM T WHERE X = 1");
  auto a2 = cache.Admit("SELECT A FROM T WHERE X = 2");
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a1->tpl, a2->tpl);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(a1->tpl->info.num_placeholders, 1);
  EXPECT_TRUE(a1->tpl->info.read_only);
  EXPECT_EQ(cache.GetByFingerprint(a1->fingerprint()), a1->tpl.get());
}

TEST(TemplateCatalogTest, ExecutionStatsCumulativeMean) {
  TemplateCache cache;
  auto adm = cache.Admit("SELECT A FROM T");
  ASSERT_TRUE(adm.ok());
  const CachedTemplate& t = *adm->tpl;
  t.RecordExecution(util::Millis(10));
  t.RecordExecution(util::Millis(20));
  EXPECT_DOUBLE_EQ(t.mean_exec_us, 15000.0);
  EXPECT_EQ(t.executions, 2u);
}

TEST(TemplateCatalogTest, ObservationCounting) {
  TemplateCache cache;
  auto a = cache.Admit("SELECT A FROM T");
  auto b = cache.Admit("SELECT B FROM T");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  cache.BumpObservations(*a->tpl);
  cache.BumpObservations(*a->tpl);
  cache.BumpObservations(*b->tpl);
  EXPECT_EQ(a->tpl->observations, 2u);
  EXPECT_EQ(cache.total_observations(), 3u);
}

}  // namespace
}  // namespace apollo::sql
