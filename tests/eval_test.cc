#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "query/compiled_query.h"
#include "query/parser.h"
#include "relational/database.h"

namespace bcdb {
namespace {

/// Edge(src, dst, w) and Label(node, tag) over small graphs.
Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "Edge", {Attribute{"src", ValueType::kInt, false},
                               Attribute{"dst", ValueType::kInt, false},
                               Attribute{"w", ValueType::kInt, true}}))
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "Label", {Attribute{"node", ValueType::kInt, false},
                                Attribute{"tag", ValueType::kString, false}}))
                  .ok());
  return catalog;
}

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() : db_(MakeCatalog()) {}

  void Edge(std::int64_t s, std::int64_t d, std::int64_t w,
            TupleOwner owner = kBaseOwner) {
    ASSERT_TRUE(
        db_.Insert("Edge", Tuple({Value::Int(s), Value::Int(d), Value::Int(w)}),
                   owner)
            .ok());
  }
  void Label(std::int64_t n, const std::string& tag,
             TupleOwner owner = kBaseOwner) {
    ASSERT_TRUE(
        db_.Insert("Label", Tuple({Value::Int(n), Value::Str(tag)}), owner)
            .ok());
  }

  bool Eval(const std::string& text) {
    return EvalOn(text, db_.BaseView());
  }

  bool EvalOn(const std::string& text, const WorldView& view) {
    auto parsed = ParseDenialConstraint(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    auto compiled = CompiledQuery::Compile(*parsed, &db_);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
    return compiled->Evaluate(view);
  }

  Database db_;
};

TEST_F(EvalTest, SingleAtomMatch) {
  Edge(1, 2, 10);
  EXPECT_TRUE(Eval("q() :- Edge(x, y, w)"));
  EXPECT_TRUE(Eval("q() :- Edge(1, y, w)"));
  EXPECT_FALSE(Eval("q() :- Edge(3, y, w)"));
}

TEST_F(EvalTest, EmptyRelationIsFalse) {
  EXPECT_FALSE(Eval("q() :- Edge(x, y, w)"));
}

TEST_F(EvalTest, JoinThroughSharedVariable) {
  Edge(1, 2, 10);
  Edge(2, 3, 10);
  EXPECT_TRUE(Eval("q() :- Edge(x, y, u), Edge(y, z, v)"));
  EXPECT_FALSE(Eval("q() :- Edge(x, y, u), Edge(y, z, v), Edge(z, t, s)"));
  Edge(3, 4, 10);
  EXPECT_TRUE(Eval("q() :- Edge(x, y, u), Edge(y, z, v), Edge(z, t, s)"));
}

TEST_F(EvalTest, RepeatedVariableWithinAtom) {
  Edge(1, 2, 10);
  EXPECT_FALSE(Eval("q() :- Edge(x, x, w)"));  // Self loop required.
  Edge(5, 5, 1);
  EXPECT_TRUE(Eval("q() :- Edge(x, x, w)"));
}

TEST_F(EvalTest, Comparisons) {
  Edge(1, 2, 10);
  Edge(3, 4, 50);
  EXPECT_TRUE(Eval("q() :- Edge(x, y, w), w > 20"));
  EXPECT_FALSE(Eval("q() :- Edge(x, y, w), w > 100"));
  EXPECT_TRUE(Eval("q() :- Edge(x, y, w), Edge(u, v, t), w < t"));
  EXPECT_TRUE(Eval("q() :- Edge(x, y, w), x != y"));
  EXPECT_TRUE(Eval("q() :- Edge(x, y, w), w = 50"));
  EXPECT_FALSE(Eval("q() :- Edge(x, y, w), w = 51"));
}

TEST_F(EvalTest, ConstantComparisonFolding) {
  Edge(1, 2, 10);
  EXPECT_FALSE(Eval("q() :- Edge(x, y, w), 1 > 2"));
  EXPECT_TRUE(Eval("q() :- Edge(x, y, w), 1 < 2"));
}

TEST_F(EvalTest, NegatedAtom) {
  Edge(1, 2, 10);
  Label(1, "good");
  EXPECT_TRUE(Eval("q() :- Edge(x, y, w), not Label(y, 'good')"));
  EXPECT_FALSE(Eval("q() :- Edge(x, y, w), not Label(x, 'good')"));
  Label(2, "good");
  EXPECT_FALSE(Eval("q() :- Edge(x, y, w), not Label(y, 'good')"));
}

TEST_F(EvalTest, UnsafeQueriesRejected) {
  auto q1 = ParseDenialConstraint("q() :- Edge(x, y, w), z > 3");
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(CompiledQuery::Compile(*q1, &db_).ok());

  auto q2 = ParseDenialConstraint("q() :- Edge(x, y, w), not Label(z, 'a')");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(CompiledQuery::Compile(*q2, &db_).ok());
}

TEST_F(EvalTest, CompileErrors) {
  auto bad_rel = ParseDenialConstraint("q() :- Nope(x)");
  ASSERT_TRUE(bad_rel.ok());
  EXPECT_FALSE(CompiledQuery::Compile(*bad_rel, &db_).ok());

  auto bad_arity = ParseDenialConstraint("q() :- Edge(x, y)");
  ASSERT_TRUE(bad_arity.ok());
  EXPECT_FALSE(CompiledQuery::Compile(*bad_arity, &db_).ok());

  auto bad_type = ParseDenialConstraint("q() :- Edge('s', y, w)");
  ASSERT_TRUE(bad_type.ok());
  EXPECT_FALSE(CompiledQuery::Compile(*bad_type, &db_).ok());
}

TEST_F(EvalTest, VisibilityRespectsWorld) {
  const TupleOwner t0 = db_.RegisterOwner();
  Edge(1, 2, 10);
  Edge(2, 3, 10, t0);

  EXPECT_FALSE(EvalOn("q() :- Edge(x, y, u), Edge(y, z, v)", db_.BaseView()));
  WorldView world = db_.BaseView();
  world.Activate(t0);
  EXPECT_TRUE(EvalOn("q() :- Edge(x, y, u), Edge(y, z, v)", world));
  EXPECT_TRUE(EvalOn("q() :- Edge(x, y, u), Edge(y, z, v)", db_.FullView()));
}

TEST_F(EvalTest, NegationSeesActivatedTuples) {
  const TupleOwner t0 = db_.RegisterOwner();
  Edge(1, 2, 10);
  Label(2, "good", t0);
  EXPECT_TRUE(Eval("q() :- Edge(x, y, w), not Label(y, 'good')"));
  WorldView world = db_.BaseView();
  world.Activate(t0);
  EXPECT_FALSE(EvalOn("q() :- Edge(x, y, w), not Label(y, 'good')", world));
}

// --- Aggregates ---

TEST_F(EvalTest, CountAggregate) {
  Edge(1, 2, 10);
  Edge(1, 3, 20);
  Edge(2, 3, 30);
  EXPECT_TRUE(Eval("[q(count()) :- Edge(1, y, w)] = 2"));
  EXPECT_TRUE(Eval("[q(count()) :- Edge(x, y, w)] > 2"));
  EXPECT_FALSE(Eval("[q(count()) :- Edge(x, y, w)] > 3"));
  EXPECT_TRUE(Eval("[q(count()) :- Edge(x, y, w)] >= 3"));
  EXPECT_TRUE(Eval("[q(count()) :- Edge(x, y, w)] < 4"));
}

TEST_F(EvalTest, EmptyBagIsFalse) {
  // Paper Section 5: α over the empty bag compares to false regardless of θ.
  EXPECT_FALSE(Eval("[q(count()) :- Edge(x, y, w)] = 0"));
  EXPECT_FALSE(Eval("[q(count()) :- Edge(x, y, w)] < 5"));
  EXPECT_FALSE(Eval("[q(sum(w)) :- Edge(x, y, w)] < 5"));
}

TEST_F(EvalTest, SumAggregate) {
  Edge(1, 2, 10);
  Edge(1, 3, 20);
  EXPECT_TRUE(Eval("[q(sum(w)) :- Edge(1, y, w)] = 30"));
  EXPECT_TRUE(Eval("[q(sum(w)) :- Edge(1, y, w)] > 29"));
  EXPECT_FALSE(Eval("[q(sum(w)) :- Edge(1, y, w)] > 30"));
}

TEST_F(EvalTest, SumIsBagSemantics) {
  // Two assignments project to the same w; both count.
  Edge(1, 2, 10);
  Edge(1, 3, 10);
  EXPECT_TRUE(Eval("[q(sum(w)) :- Edge(1, y, w)] = 20"));
}

TEST_F(EvalTest, SumPromotesToRealOnInt64Overflow) {
  // The int64 sum of these amounts wraps to a negative number; the
  // accumulator must continue in floating point instead.
  Edge(1, 2, std::numeric_limits<std::int64_t>::max());
  Edge(1, 3, 10);
  EXPECT_FALSE(Eval("[q(sum(w)) :- Edge(1, y, w)] < 0"));
  EXPECT_TRUE(Eval("[q(sum(w)) :- Edge(1, y, w)] > 0"));
}

TEST_F(EvalTest, CountDistinctAggregate) {
  Edge(1, 2, 10);
  Edge(1, 3, 10);
  Edge(2, 3, 99);
  EXPECT_TRUE(Eval("[q(cntd(w)) :- Edge(x, y, w)] = 2"));
  EXPECT_TRUE(Eval("[q(cntd(x, y)) :- Edge(x, y, w)] = 3"));
}

TEST_F(EvalTest, MaxMinAggregates) {
  Edge(1, 2, 10);
  Edge(1, 3, 25);
  EXPECT_TRUE(Eval("[q(max(w)) :- Edge(x, y, w)] = 25"));
  EXPECT_TRUE(Eval("[q(max(w)) :- Edge(x, y, w)] > 20"));
  EXPECT_FALSE(Eval("[q(max(w)) :- Edge(x, y, w)] > 25"));
  EXPECT_TRUE(Eval("[q(min(w)) :- Edge(x, y, w)] = 10"));
  EXPECT_TRUE(Eval("[q(min(w)) :- Edge(x, y, w)] < 11"));
}

TEST_F(EvalTest, SumRequiresSingleVariable) {
  auto q = ParseDenialConstraint("[q(sum(x, y)) :- Edge(x, y, w)] > 1");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(CompiledQuery::Compile(*q, &db_).ok());
}

TEST_F(EvalTest, AggregateOverJoin) {
  Edge(1, 2, 10);
  Edge(2, 3, 20);
  Edge(2, 4, 30);
  // Two 2-paths from 1: weights of second hop 20 and 30.
  EXPECT_TRUE(Eval("[q(sum(v)) :- Edge(1, y, w), Edge(y, z, v)] = 50"));
}

TEST_F(EvalTest, ExplainPlanDescribesAccessPaths) {
  Edge(1, 2, 10);
  auto q = ParseDenialConstraint("q() :- Edge(1, y, w), Edge(y, z, v), y < z");
  ASSERT_TRUE(q.ok());
  auto compiled = CompiledQuery::Compile(*q, &db_);
  ASSERT_TRUE(compiled.ok());
  const std::string plan = compiled->ExplainPlan();
  // The constant-anchored atom goes first via an index; the join follows.
  EXPECT_NE(plan.find("1. Edge via index("), std::string::npos) << plan;
  EXPECT_NE(plan.find("2. Edge via index("), std::string::npos) << plan;
  EXPECT_NE(plan.find("comparison"), std::string::npos) << plan;

  auto scan = ParseDenialConstraint("q() :- Edge(x, y, w)");
  ASSERT_TRUE(scan.ok());
  auto compiled_scan = CompiledQuery::Compile(*scan, &db_);
  ASSERT_TRUE(compiled_scan.ok());
  EXPECT_NE(compiled_scan->ExplainPlan().find("full scan"), std::string::npos);

  auto agg = ParseDenialConstraint("[q(sum(w)) :- Edge(1, y, w)] > 5");
  ASSERT_TRUE(agg.ok());
  auto compiled_agg = CompiledQuery::Compile(*agg, &db_);
  ASSERT_TRUE(compiled_agg.ok());
  EXPECT_NE(compiled_agg->ExplainPlan().find("sum >"), std::string::npos);
}

// --- CoversConstants ---

TEST_F(EvalTest, CoversConstants) {
  Edge(1, 2, 10);
  auto q = ParseDenialConstraint("q() :- Edge(1, y, w), Edge(y, 9, v)");
  ASSERT_TRUE(q.ok());
  auto compiled = CompiledQuery::Compile(*q, &db_);
  ASSERT_TRUE(compiled.ok());
  // Constant 9 as dst never appears.
  EXPECT_FALSE(compiled->CoversConstants(db_.BaseView()));
  Edge(7, 9, 1);
  // Index was built at compile time and is maintained on insert.
  EXPECT_TRUE(compiled->CoversConstants(db_.BaseView()));
}

TEST_F(EvalTest, CoversConstantsRespectsView) {
  const TupleOwner t0 = db_.RegisterOwner();
  Edge(1, 2, 10, t0);
  auto q = ParseDenialConstraint("q() :- Edge(1, y, w)");
  ASSERT_TRUE(q.ok());
  auto compiled = CompiledQuery::Compile(*q, &db_);
  ASSERT_TRUE(compiled.ok());
  EXPECT_FALSE(compiled->CoversConstants(db_.BaseView()));
  EXPECT_TRUE(compiled->CoversConstants(db_.FullView()));
}

}  // namespace
}  // namespace bcdb
