#include <gtest/gtest.h>

#include "query/analysis.h"
#include "query/parser.h"

namespace bcdb {
namespace {

Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false},
                            Attribute{"c", ValueType::kInt, true}}))
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "S", {Attribute{"x", ValueType::kInt, false},
                            Attribute{"y", ValueType::kInt, false}}))
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "T", {Attribute{"u", ValueType::kInt, false},
                            Attribute{"v", ValueType::kInt, false}}))
                  .ok());
  return catalog;
}

QueryAnalysis Analyze(const std::string& text, const Catalog& catalog) {
  auto q = ParseDenialConstraint(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return AnalyzeQuery(*q, catalog);
}

TEST(AnalysisTest, PositiveConjunctiveIsMonotone) {
  Catalog catalog = MakeCatalog();
  EXPECT_TRUE(Analyze("q() :- R(x, y, z), S(y, w)", catalog).monotone);
}

TEST(AnalysisTest, NegationBreaksMonotonicity) {
  Catalog catalog = MakeCatalog();
  EXPECT_FALSE(Analyze("q() :- R(x, y, z), not S(x, y)", catalog).monotone);
}

TEST(AnalysisTest, AggregateMonotonicityByFunctionAndOp) {
  Catalog catalog = MakeCatalog();
  EXPECT_TRUE(Analyze("[q(count()) :- R(x, y, z)] > 5", catalog).monotone);
  EXPECT_TRUE(Analyze("[q(count()) :- R(x, y, z)] >= 5", catalog).monotone);
  EXPECT_FALSE(Analyze("[q(count()) :- R(x, y, z)] < 5", catalog).monotone);
  EXPECT_FALSE(Analyze("[q(count()) :- R(x, y, z)] = 5", catalog).monotone);
  EXPECT_TRUE(Analyze("[q(cntd(x)) :- R(x, y, z)] > 5", catalog).monotone);
  EXPECT_TRUE(Analyze("[q(max(x)) :- R(x, y, z)] > 5", catalog).monotone);
  EXPECT_FALSE(Analyze("[q(max(x)) :- R(x, y, z)] < 5", catalog).monotone);
  EXPECT_TRUE(Analyze("[q(min(x)) :- R(x, y, z)] < 5", catalog).monotone);
  EXPECT_FALSE(Analyze("[q(min(x)) :- R(x, y, z)] > 5", catalog).monotone);
}

TEST(AnalysisTest, SumMonotonicityNeedsNonNegativeHint) {
  Catalog catalog = MakeCatalog();
  // c carries the non_negative hint, a does not.
  EXPECT_TRUE(Analyze("[q(sum(z)) :- R(x, y, z)] > 5", catalog).monotone);
  EXPECT_FALSE(Analyze("[q(sum(x)) :- R(x, y, z)] > 5", catalog).monotone);
}

TEST(AnalysisTest, ConnectivityBySharedVariables) {
  Catalog catalog = MakeCatalog();
  EXPECT_TRUE(Analyze("q() :- S(x, y), T(y, z)", catalog).connected);
  EXPECT_FALSE(Analyze("q() :- S(x, y), T(u, v)", catalog).connected);
  // Paper's example: comparisons other than '=' do not connect.
  EXPECT_FALSE(Analyze("q() :- S(x, y), T(w, v), y < v", catalog).connected);
  // '=' merges terms.
  EXPECT_TRUE(Analyze("q() :- S(x, y), T(w, v), y = v", catalog).connected);
}

TEST(AnalysisTest, ConnectivityThroughSharedConstant) {
  Catalog catalog = MakeCatalog();
  EXPECT_TRUE(Analyze("q() :- S(x, 7), T(u, 7)", catalog).connected);
  EXPECT_FALSE(Analyze("q() :- S(x, 7), T(u, 8)", catalog).connected);
}

TEST(AnalysisTest, SingleAtomConnected) {
  Catalog catalog = MakeCatalog();
  EXPECT_TRUE(Analyze("q() :- R(x, y, z)", catalog).connected);
}

TEST(AnalysisTest, AggregatesAreNotConnected) {
  Catalog catalog = MakeCatalog();
  // The paper restricts the connected optimization to conjunctive queries.
  EXPECT_FALSE(Analyze("[q(count()) :- S(x, y)] > 5", catalog).connected);
}

TEST(AnalysisTest, EqualitiesFromConstraints) {
  Catalog catalog = MakeCatalog();
  ConstraintSet constraints;
  auto ind = InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"});
  ASSERT_TRUE(ind.ok());
  constraints.AddInd(std::move(*ind));
  auto equalities = EqualitiesFromConstraints(constraints);
  ASSERT_EQ(equalities.size(), 1u);
  EXPECT_EQ(equalities[0].lhs_relation_id, 1u);  // S
  EXPECT_EQ(equalities[0].rhs_relation_id, 0u);  // R
  EXPECT_EQ(equalities[0].lhs_positions, (std::vector<std::size_t>{0}));
  EXPECT_EQ(equalities[0].rhs_positions, (std::vector<std::size_t>{0}));
}

TEST(AnalysisTest, EqualitiesFromQuerySharedVariables) {
  Catalog catalog = MakeCatalog();
  // Paper Example 7 shape: q() ← R(w, x, u), S(x, w), T(y, x) gives
  // R[1,2]=S[2,1], R[2]=T[2], S[1]=T[2].
  auto q = ParseDenialConstraint("q() :- R(w, x, u), S(x, w), T(y, x)");
  ASSERT_TRUE(q.ok());
  auto equalities = EqualitiesFromQuery(*q, catalog);
  ASSERT_TRUE(equalities.ok());
  ASSERT_EQ(equalities->size(), 3u);
  // R vs S: positions (0,1) ↔ (1,0).
  EXPECT_EQ((*equalities)[0].lhs_positions, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ((*equalities)[0].rhs_positions, (std::vector<std::size_t>{1, 0}));
  // R vs T: x at R pos 1 ↔ T pos 1.
  EXPECT_EQ((*equalities)[1].lhs_positions, (std::vector<std::size_t>{1}));
  EXPECT_EQ((*equalities)[1].rhs_positions, (std::vector<std::size_t>{1}));
  // S vs T: x at S pos 0 ↔ T pos 1.
  EXPECT_EQ((*equalities)[2].lhs_positions, (std::vector<std::size_t>{0}));
  EXPECT_EQ((*equalities)[2].rhs_positions, (std::vector<std::size_t>{1}));
}

TEST(AnalysisTest, EqualitiesFromQueryConstantsAndEqComparisons) {
  Catalog catalog = MakeCatalog();
  auto q = ParseDenialConstraint("q() :- S(x, 7), T(u, 7), x = u");
  ASSERT_TRUE(q.ok());
  auto equalities = EqualitiesFromQuery(*q, catalog);
  ASSERT_TRUE(equalities.ok());
  ASSERT_EQ(equalities->size(), 1u);
  // Both positions pair up: x=u at position 0, constant 7 at position 1.
  EXPECT_EQ((*equalities)[0].lhs_positions, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ((*equalities)[0].rhs_positions, (std::vector<std::size_t>{0, 1}));
}

TEST(AnalysisTest, NoEqualitiesBetweenUnrelatedAtoms) {
  Catalog catalog = MakeCatalog();
  auto q = ParseDenialConstraint("q() :- S(x, y), T(u, v)");
  ASSERT_TRUE(q.ok());
  auto equalities = EqualitiesFromQuery(*q, catalog);
  ASSERT_TRUE(equalities.ok());
  EXPECT_TRUE(equalities->empty());
}

// Θ_q is a non-redundant generating set: the cases below pin each rule of
// the reduction. Relation ids: R = 0, S = 1, T = 2.

std::vector<EqualityConstraint> ThetaQ(const std::string& text,
                                       const Catalog& catalog) {
  auto q = ParseDenialConstraint(text);
  EXPECT_TRUE(q.ok()) << q.status();
  auto equalities = EqualitiesFromQuery(*q, catalog);
  EXPECT_TRUE(equalities.ok()) << equalities.status();
  return *equalities;
}

void ExpectEquality(const EqualityConstraint& eq, std::size_t lhs_relation,
                    std::vector<std::size_t> lhs_positions,
                    std::size_t rhs_relation,
                    std::vector<std::size_t> rhs_positions) {
  EXPECT_EQ(eq.lhs_relation_id, lhs_relation);
  EXPECT_EQ(eq.lhs_positions, lhs_positions);
  EXPECT_EQ(eq.rhs_relation_id, rhs_relation);
  EXPECT_EQ(eq.rhs_positions, rhs_positions);
}

TEST(AnalysisTest, ThetaQDropsExactDuplicate) {
  // S–T1 and S–T2 both give S[0]=T[0]; T1–T2 gives T[0]=T[0].
  const auto theta_q =
      ThetaQ("q() :- S(x, y), T(x, v), T(x, w)", MakeCatalog());
  ASSERT_EQ(theta_q.size(), 2u);
  ExpectEquality(theta_q[0], 1, {0}, 2, {0});
  ExpectEquality(theta_q[1], 2, {0}, 2, {0});
}

TEST(AnalysisTest, ThetaQDropsDuplicateInOppositeOrientation) {
  // T–S2 gives T[0]=S[0], the first equality S[0]=T[0] written backwards.
  const auto theta_q =
      ThetaQ("q() :- S(x, y), T(x, v), S(x, w)", MakeCatalog());
  ASSERT_EQ(theta_q.size(), 2u);
  ExpectEquality(theta_q[0], 1, {0}, 2, {0});
  ExpectEquality(theta_q[1], 1, {0}, 1, {0});
}

TEST(AnalysisTest, ThetaQDropsSelfJoinWithSwappedPairs) {
  // S1–S2 gives S[1]=S[0]; S1–S3 gives S[0]=S[1], the same self-join with
  // the pairs swapped; S2–S3 gives S[1]=S[0] again.
  const auto theta_q =
      ThetaQ("q() :- S(x, y), S(y, z), S(z, x)", MakeCatalog());
  ASSERT_EQ(theta_q.size(), 1u);
  ExpectEquality(theta_q[0], 1, {1}, 1, {0});
}

TEST(AnalysisTest, ThetaQDropsFinerEqualityInEitherOrder) {
  // S[0,1]=T[0,1] is implied by S[0]=T[0], whether it comes first or last.
  for (const char* text : {"q() :- S(x, y), T(x, y), T(x, w)",
                           "q() :- S(x, y), T(x, w), T(x, y)"}) {
    const auto theta_q = ThetaQ(text, MakeCatalog());
    ASSERT_EQ(theta_q.size(), 2u) << text;
    ExpectEquality(theta_q[0], 1, {0}, 2, {0});
    ExpectEquality(theta_q[1], 2, {0}, 2, {0});
  }
}

TEST(AnalysisTest, ThetaQKeepsFirstOccurrenceOrientation) {
  // T1–S gives T[1]=S[0] first; S–T2 restates it as S[0]=T[1].
  const auto theta_q =
      ThetaQ("q() :- T(v, x), S(x, y), T(w, x)", MakeCatalog());
  ASSERT_EQ(theta_q.size(), 2u);
  ExpectEquality(theta_q[0], 2, {1}, 1, {0});
  ExpectEquality(theta_q[1], 2, {1}, 2, {1});
}

TEST(AnalysisTest, ImpliesComparesPairSetsInBothOrientations) {
  const EqualityConstraint s0_t0{1, 2, {0}, {0}};
  const EqualityConstraint t0_s0{2, 1, {0}, {0}};
  const EqualityConstraint s01_t10{1, 2, {0, 1}, {1, 0}};
  const EqualityConstraint t10_s01{2, 1, {1, 0}, {0, 1}};
  const EqualityConstraint s1_t1{1, 2, {1}, {1}};
  EXPECT_TRUE(Implies(s0_t0, t0_s0));
  EXPECT_TRUE(Implies(t0_s0, s0_t0));
  EXPECT_TRUE(Implies(s01_t10, t10_s01));
  EXPECT_FALSE(Implies(s0_t0, s01_t10));  // (0,0) is not a pair of it.
  EXPECT_FALSE(Implies(s1_t1, s01_t10));
  EXPECT_FALSE(Implies(s01_t10, s0_t0));  // Finer never implies coarser.
  // Different relation pairs never imply each other.
  EXPECT_FALSE(Implies(EqualityConstraint{0, 2, {0}, {0}}, s0_t0));
}

}  // namespace
}  // namespace bcdb
