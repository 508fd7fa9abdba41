#include <gtest/gtest.h>

#include <fstream>

#include "core/engine.h"
#include "datalog/parser.h"
#include "storage/index.h"

namespace carac::datalog {
namespace {

std::vector<storage::Tuple> RunAndGet(Program* p, const std::string& rel) {
  core::Engine engine(p, core::EngineConfig{});
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());
  for (PredicateId id = 0; id < p->NumPredicates(); ++id) {
    if (p->PredicateName(id) == rel) return engine.Results(id);
  }
  CARAC_CHECK(false);
  return {};
}

TEST(ParserTest, FactsAndTransitiveClosure) {
  Program p;
  ASSERT_TRUE(ParseDatalog(R"(
    % transitive closure
    Edge(1, 2).
    Edge(2, 3).
    Edge(3, 4).
    Path(x, y) :- Edge(x, y).
    Path(x, z) :- Path(x, y), Edge(y, z).
  )", &p).ok());
  EXPECT_EQ(RunAndGet(&p, "Path").size(), 6u);
}

TEST(ParserTest, NegationAndComparison) {
  Program p;
  ASSERT_TRUE(ParseDatalog(R"(
    Num(1). Num(2). Num(3). Num(4). Num(5).
    Big(x) :- Num(x), x >= 3.
    Small(x) :- Num(x), !Big(x).
  )", &p).ok());
  const auto small = RunAndGet(&p, "Small");
  ASSERT_EQ(small.size(), 2u);
  EXPECT_EQ(small[0], (storage::Tuple{1}));
  EXPECT_EQ(small[1], (storage::Tuple{2}));
}

TEST(ParserTest, ArithmeticConstraint) {
  Program p;
  ASSERT_TRUE(ParseDatalog(R"(
    Num(3). Num(7).
    Doubled(x, y) :- Num(x), y = x * 2.
  )", &p).ok());
  const auto rows = RunAndGet(&p, "Doubled");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (storage::Tuple{3, 6}));
  EXPECT_EQ(rows[1], (storage::Tuple{7, 14}));
}

TEST(ParserTest, StringConstants) {
  Program p;
  ASSERT_TRUE(ParseDatalog(R"(
    Inv("deserialize", "serialize").
    Pair(f, g) :- Inv(f, g).
  )", &p).ok());
  const auto rows = RunAndGet(&p, "Pair");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], p.Intern("deserialize"));
  EXPECT_EQ(rows[0][1], p.Intern("serialize"));
}

TEST(ParserTest, CommentsAndWhitespaceVariants) {
  Program p;
  ASSERT_TRUE(ParseDatalog(
      "Edge(1,2). // c++-style comment\n"
      "Edge(2,3). % datalog-style comment\n"
      "Path(x,y):-Edge(x,y).", &p).ok());
  EXPECT_EQ(RunAndGet(&p, "Path").size(), 2u);
}

TEST(ParserTest, NegativeNumbers) {
  Program p;
  ASSERT_TRUE(ParseDatalog("Temp(-5). Temp(3).\n"
                           "Freezing(x) :- Temp(x), x < 0.", &p).ok());
  const auto rows = RunAndGet(&p, "Freezing");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (storage::Tuple{-5}));
}

TEST(ParserTest, VariablesAreRuleScoped) {
  Program p;
  ASSERT_TRUE(ParseDatalog(R"(
    A(1). B(2).
    OutA(x) :- A(x).
    OutB(x) :- B(x).
  )", &p).ok());
  EXPECT_EQ(RunAndGet(&p, "OutA")[0], (storage::Tuple{1}));
  EXPECT_EQ(RunAndGet(&p, "OutB")[0], (storage::Tuple{2}));
}

TEST(ParserTest, RejectsArityMismatch) {
  Program p;
  util::Status s = ParseDatalog("Edge(1, 2).\nEdge(1, 2, 3).", &p);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("arity"), std::string::npos);
}

TEST(ParserTest, LowercaseRelationDiagnosticTeachesCaseConvention) {
  Program p;
  util::Status s = ParseDatalog("path(x, y) :- Edge(x, y).", &p);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("'path'"), std::string::npos);
  EXPECT_NE(s.message().find("relations start uppercase"), std::string::npos);
}

TEST(ParserTest, RejectsNonGroundFact) {
  Program p;
  EXPECT_FALSE(ParseDatalog("Edge(x, 2).", &p).ok());
}

TEST(ParserTest, RejectsUnsafeRuleWithLineNumber) {
  Program p;
  util::Status s = ParseDatalog("A(1).\nOut(y) :- A(x).", &p);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(ParserTest, RejectsSyntaxErrors) {
  Program p;
  EXPECT_FALSE(ParseDatalog("Edge(1, 2", &p).ok());
  EXPECT_FALSE(ParseDatalog("Edge(1, 2);", &p).ok());
  EXPECT_FALSE(ParseDatalog("path(x) :- Edge(x, y).", &p).ok());  // lowercase head
  EXPECT_FALSE(ParseDatalog("A(x) :- B(x), x # 2.", &p).ok());
  EXPECT_FALSE(ParseDatalog("A(\"unterminated).", &p).ok());
}

TEST(ParserTest, RejectsNegatedHead) {
  Program p;
  EXPECT_FALSE(ParseDatalog("!A(x) :- B(x).", &p).ok());
}

TEST(ParserTest, IndexPragmaRegistersHint) {
  Program p;
  ASSERT_TRUE(ParseDatalog(R"(
    Edge(1, 2).
    Path(x, y) :- Edge(x, y).
    Path(x, z) :- Path(x, y), Edge(y, z).
    @index(Edge, 0, btree).
    @index(Path, 1, learned).
  )", &p).ok());
  ASSERT_EQ(p.index_hints().size(), 2u);
  EXPECT_EQ(p.index_hints()[0].column, 0u);
  EXPECT_EQ(p.index_hints()[0].kind, storage::IndexKind::kBtree);
  EXPECT_EQ(p.PredicateName(p.index_hints()[0].predicate), "Edge");
  EXPECT_EQ(p.index_hints()[1].column, 1u);
  EXPECT_EQ(p.index_hints()[1].kind, storage::IndexKind::kLearned);
  EXPECT_EQ(p.PredicateName(p.index_hints()[1].predicate), "Path");
  // The hinted program still evaluates normally.
  EXPECT_EQ(RunAndGet(&p, "Path").size(), 1u);
}

TEST(ParserTest, IndexPragmaRejectsUnknownPragma) {
  Program p;
  util::Status s = ParseDatalog("Edge(1, 2).\n@frobnicate(Edge).", &p);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("@index"), std::string::npos);
}

TEST(ParserTest, IndexPragmaRejectsUnknownRelation) {
  Program p;
  util::Status s = ParseDatalog("@index(Edge, 0, hash).", &p);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("fact or rule first"), std::string::npos);
}

TEST(ParserTest, IndexPragmaRejectsColumnOutOfRange) {
  Program p;
  util::Status s = ParseDatalog("Edge(1, 2).\n@index(Edge, 2, hash).", &p);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("out of range"), std::string::npos);
}

TEST(ParserTest, IndexPragmaRejectsUnknownKind) {
  Program p;
  util::Status s = ParseDatalog("Edge(1, 2).\n@index(Edge, 0, lsm).", &p);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown index kind"), std::string::npos);
}

TEST(ParserTest, IndexPragmaRejectsRemovedKindAndListsValidOnes) {
  Program p;
  util::Status s = ParseDatalog(R"(
    Edge(1, 2).
    Path(x, y) :- Edge(x, y).
    @index(Path, 1, sorted_array).
  )", &p);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown index kind 'sorted_array'"),
            std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("hash, btree, learned"), std::string::npos)
      << s.message();
}

TEST(ParserTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/carac_parser_test.dl";
  {
    std::ofstream out(path);
    out << "Edge(1, 2).\nEdge(2, 3).\n"
        << "Path(x, y) :- Edge(x, y).\n"
        << "Path(x, z) :- Path(x, y), Edge(y, z).\n";
  }
  Program p;
  ASSERT_TRUE(ParseDatalogFile(path, &p).ok());
  EXPECT_EQ(RunAndGet(&p, "Path").size(), 3u);
  Program q;
  EXPECT_EQ(ParseDatalogFile("/nonexistent.dl", &q).code(),
            util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace carac::datalog
