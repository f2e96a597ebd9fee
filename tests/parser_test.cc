#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "query/parser.h"

namespace bcdb {
namespace {

TEST(ParserTest, SimplePositiveQuery) {
  auto q = ParseDenialConstraint("q() :- TxOut(ntx, s, 'U8Pk', a)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->name, "q");
  ASSERT_EQ(q->positive_atoms.size(), 1u);
  const Atom& atom = q->positive_atoms[0];
  EXPECT_EQ(atom.relation, "TxOut");
  ASSERT_EQ(atom.args.size(), 4u);
  EXPECT_TRUE(atom.args[0].is_variable());
  EXPECT_EQ(atom.args[0].name(), "ntx");
  EXPECT_FALSE(atom.args[2].is_variable());
  EXPECT_EQ(atom.args[2].value(), Value::Str("U8Pk"));
}

TEST(ParserTest, AcceptsArrowVariantAndPeriod) {
  EXPECT_TRUE(ParseDenialConstraint("q() <- R(x).").ok());
  EXPECT_TRUE(ParseDenialConstraint("q() :- R(x).").ok());
}

TEST(ParserTest, NumericConstants) {
  auto q = ParseDenialConstraint("q() :- R(1, -2, 0.5, x)");
  ASSERT_TRUE(q.ok());
  const Atom& atom = q->positive_atoms[0];
  EXPECT_EQ(atom.args[0].value(), Value::Int(1));
  EXPECT_EQ(atom.args[1].value(), Value::Int(-2));
  EXPECT_EQ(atom.args[2].value(), Value::Real(0.5));
  EXPECT_TRUE(atom.args[3].is_variable());
}

TEST(ParserTest, MultipleAtomsAndComparisons) {
  auto q = ParseDenialConstraint(
      "q() :- R(x, y), S(y, z), x != z, y > 3, z <= 'abc'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->positive_atoms.size(), 2u);
  ASSERT_EQ(q->comparisons.size(), 3u);
  EXPECT_EQ(q->comparisons[0].op, ComparisonOp::kNe);
  EXPECT_EQ(q->comparisons[1].op, ComparisonOp::kGt);
  EXPECT_EQ(q->comparisons[2].op, ComparisonOp::kLe);
}

TEST(ParserTest, DiamondNeSyntax) {
  auto q = ParseDenialConstraint("q() :- R(x, y), x <> y");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->comparisons.size(), 1u);
  EXPECT_EQ(q->comparisons[0].op, ComparisonOp::kNe);
}

TEST(ParserTest, NegatedAtom) {
  auto q = ParseDenialConstraint(
      "q2() :- TxIn(pt, ps, 'AlcPK', a, ntx, 'AlcSig'), TxOut(ntx, s, pk, b), "
      "not Trusted(pk)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->positive_atoms.size(), 2u);
  ASSERT_EQ(q->negated_atoms.size(), 1u);
  EXPECT_TRUE(q->negated_atoms[0].negated);
  EXPECT_EQ(q->negated_atoms[0].relation, "Trusted");
}

TEST(ParserTest, AggregateQuery) {
  auto q = ParseDenialConstraint(
      "[q3(sum(a)) :- TxIn(t, s, 'AlcPK', a, nt, 'AlcSig')] > 5");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(q->aggregate.has_value());
  EXPECT_EQ(q->aggregate->fn, AggregateFunction::kSum);
  EXPECT_EQ(q->aggregate->op, ComparisonOp::kGt);
  EXPECT_EQ(q->aggregate->threshold, Value::Int(5));
  ASSERT_EQ(q->aggregate->args.size(), 1u);
  EXPECT_EQ(q->aggregate->args[0].name(), "a");
}

TEST(ParserTest, CountDistinctAggregate) {
  auto q = ParseDenialConstraint("[q4(cntd(ntx)) :- R(ntx, x)] >= 10");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->aggregate->fn, AggregateFunction::kCountDistinct);
  EXPECT_EQ(q->aggregate->op, ComparisonOp::kGe);
}

TEST(ParserTest, CountWithNoArgs) {
  auto q = ParseDenialConstraint("[q(count()) :- R(x)] > 3");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->aggregate->args.empty());
}

TEST(ParserTest, RoundTripsThroughToString) {
  const char* queries[] = {
      "q() :- TxOut(ntx, s, 'U8Pk', a)",
      "q() :- R(x, y), S(y, z), x != z",
      "[qa(sum(a)) :- TxOut(n, s, 'X', a)] >= 100",
  };
  for (const char* text : queries) {
    auto q1 = ParseDenialConstraint(text);
    ASSERT_TRUE(q1.ok()) << text;
    auto q2 = ParseDenialConstraint(q1->ToString());
    ASSERT_TRUE(q2.ok()) << q1->ToString();
    EXPECT_EQ(q1->ToString(), q2->ToString());
  }
}

TEST(ParserTest, TemplateParams) {
  auto q = ParseDenialConstraint("q() :- TxOut(t, s, $pk, a), a > $floor");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->positive_atoms.size(), 1u);
  EXPECT_TRUE(q->positive_atoms[0].args[2].is_param());
  EXPECT_EQ(q->positive_atoms[0].args[2].name(), "pk");
  ASSERT_EQ(q->comparisons.size(), 1u);
  EXPECT_TRUE(q->comparisons[0].rhs.is_param());
  EXPECT_EQ(q->comparisons[0].rhs.name(), "floor");

  auto agg = ParseDenialConstraint("[q(count()) :- R(x, y)] > $limit");
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->aggregate.has_value());
  ASSERT_TRUE(agg->aggregate->threshold_param.has_value());
  EXPECT_EQ(*agg->aggregate->threshold_param, "limit");
}

TEST(ParserTest, TemplateParamsRoundTrip) {
  const char* templates[] = {
      "q() :- TxOut(t, s, $pk, a)",
      "q() :- R(x, $b), S(x, $c), x != $b",
      "[q(sum(a)) :- TxOut(n, s, $pk, a)] >= $cap",
  };
  for (const char* text : templates) {
    auto q1 = ParseDenialConstraint(text);
    ASSERT_TRUE(q1.ok()) << text;
    auto q2 = ParseDenialConstraint(q1->ToString());
    ASSERT_TRUE(q2.ok()) << q1->ToString();
    EXPECT_EQ(q1->ToString(), q2->ToString());
  }
}

TEST(ParserTest, TemplateParamErrors) {
  // '$' must be followed by a name.
  EXPECT_FALSE(ParseDenialConstraint("q() :- R($, y)").ok());
  EXPECT_FALSE(ParseDenialConstraint("q() :- R($ x, y)").ok());
  // Params are constant placeholders, not head variables.
  EXPECT_FALSE(ParseDenialConstraint("q($a) :- R($a, y)").ok());
}

TEST(ParserTest, HeadVariables) {
  auto q = ParseDenialConstraint("q(pk, a) :- TxOut(t, s, pk, a)");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->head_vars.size(), 2u);
  EXPECT_EQ(q->head_vars[0].name(), "pk");
  EXPECT_EQ(q->head_vars[1].name(), "a");
  EXPECT_FALSE(q->is_boolean());

  auto boolean = ParseDenialConstraint("q() :- R(x)");
  ASSERT_TRUE(boolean.ok());
  EXPECT_TRUE(boolean->is_boolean());
}

TEST(ParserTest, HeadConstantsRejected) {
  EXPECT_FALSE(ParseDenialConstraint("q(1) :- R(x)").ok());
  EXPECT_FALSE(ParseDenialConstraint("q('c') :- R(x)").ok());
}

TEST(ParserTest, HeadRoundTrips) {
  auto q1 = ParseDenialConstraint("q(x, y) :- R(x, y), x < y");
  ASSERT_TRUE(q1.ok());
  auto q2 = ParseDenialConstraint(q1->ToString());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q1->ToString(), q2->ToString());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseDenialConstraint("").ok());
  EXPECT_FALSE(ParseDenialConstraint("q( :- R(x)").ok());
  EXPECT_FALSE(ParseDenialConstraint("q() :- R(x").ok());
  EXPECT_FALSE(ParseDenialConstraint("q() :- R('unterminated)").ok());
  EXPECT_FALSE(ParseDenialConstraint("q() :- not x > 3").ok());
  EXPECT_FALSE(ParseDenialConstraint("[q(frobnicate(a)) :- R(a)] > 1").ok());
  EXPECT_FALSE(ParseDenialConstraint("[q(sum(a)) :- R(a)] > x").ok());
  EXPECT_FALSE(ParseDenialConstraint("q() :- R(x) trailing").ok());
}

TEST(ParserTest, OutOfRangeLiteralsAreErrors) {
  std::size_t offset = 0;
  auto too_big = ParseDenialConstraint(
      "q() :- TxOut(t, s, 'U7Pk', 99999999999999999999)", &offset);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_big.status().message().find("99999999999999999999"),
            std::string::npos);
  EXPECT_NE(too_big.status().message().find("at offset 27"),
            std::string::npos);
  EXPECT_EQ(offset, 27u);

  const std::string huge_real = std::string(400, '9') + ".5";
  auto overflow = ParseDenialConstraint("q() :- R(x), x > -" + huge_real);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.status().message().find("out of range"),
            std::string::npos);

  auto max = ParseDenialConstraint("q() :- R(-9223372036854775808)");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(max->positive_atoms[0].args[0].value(),
            Value::Int(std::numeric_limits<std::int64_t>::min()));
}

TEST(ParserTest, EveryErrorReportsItsOffset) {
  // Each text with the offset of the token the parser stopped at.
  const std::pair<const char*, std::size_t> cases[] = {
      {"", 0},
      {"q( :- R(x)", 3},
      {"q() :- R(x,", 11},
      {"q() :- R('unterminated)", 9},
      {"q() :- not x > 3", 11},
      {"[q(frobnicate(a)) :- R(a)] > 1", 3},
      {"[q(sum(a)) :- R(a)] > x", 22},
      {"[q(sum(a)) :- R(a)] x", 20},
      {"q() :- R(x) trailing", 12},
      {"q(1) :- R(x)", 2},
      {"q() :- R(x), x 3", 15},
      {"q() :- R(x) : 1", 12},
      {"q() :- R($)", 9},
      {"q() :- R(x) ! 1", 12},
      {"q() :- R(x) ; 1", 12},
      {"[q(1) :- R(x)] > 1", 3},
      {"q() :- R(x), x > ,", 17},
      {"q() R(x)", 4},
  };
  for (const auto& [text, want] : cases) {
    std::size_t offset = 12345;
    auto q = ParseDenialConstraint(text, &offset);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(offset, want) << text << ": " << q.status();
  }
}

}  // namespace
}  // namespace bcdb
