#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/dcsat.h"
#include "core/fd_graph.h"
#include "core/get_maximal.h"
#include "core/ind_graph.h"
#include "query/parser.h"
#include "running_example.h"

namespace bcdb {
namespace {

using testing_fixtures::MakeRunningExample;

// Pending ids: T1..T5 = 0..4.

TEST(RunningExampleTest, CurrentStateSatisfiesConstraints) {
  BlockchainDatabase db = MakeRunningExample();
  EXPECT_TRUE(db.ValidateCurrentState().ok());
  EXPECT_EQ(db.num_pending(), 5u);
}

TEST(RunningExampleTest, FdGraphMatchesFigure3) {
  BlockchainDatabase db = MakeRunningExample();
  FdGraph fd_graph(db);
  EXPECT_EQ(fd_graph.valid_nodes().Count(), 5u);
  // G^fd_T is complete except T1–T5 (both spend output (2,2)).
  EXPECT_EQ(fd_graph.num_conflict_pairs(), 1u);
  EXPECT_FALSE(fd_graph.Adjacent(0, 4));
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      if (i == 0 && j == 4) continue;
      EXPECT_TRUE(fd_graph.Adjacent(i, j)) << i << "," << j;
    }
  }
}

TEST(RunningExampleTest, IndComponentsMatchFigure3) {
  BlockchainDatabase db = MakeRunningExample();
  FdGraph fd_graph(db);
  UnionFind uf(db.num_pending());
  MergeEqualityComponents(db, EqualitiesFromConstraints(db.constraints()),
                          fd_graph.valid_nodes(), uf);
  const ComponentList components = GroupComponents(fd_graph.valid_nodes(), uf);
  std::set<std::set<std::size_t>> sets;
  for (std::size_t i = 0; i < components.size(); ++i) {
    sets.insert(std::set<std::size_t>(components[i].begin(),
                                      components[i].end()));
  }
  // Figure 3 (G^ind_T): {T1, T2, T3, T4} and {T5}.
  const std::set<std::set<std::size_t>> expected = {{0, 1, 2, 3}, {4}};
  EXPECT_EQ(sets, expected);
}

TEST(RunningExampleTest, GetMaximalExample6) {
  BlockchainDatabase db = MakeRunningExample();
  // Clique {T2,T3,T4,T5}: maximal world is R ∪ {T3, T5} (T2 misses its
  // parent T1, hence T4 misses T2's output).
  {
    GetMaximalStats stats;
    WorldView world = GetMaximal(db, {1, 2, 3, 4}, &stats);
    EXPECT_EQ(world.active_bits().ToVector(),
              (std::vector<std::size_t>{2, 4}));
    EXPECT_EQ(stats.appended, 2u);
  }
  // Clique {T1,T2,T3,T4}: everything fits.
  {
    WorldView world = GetMaximal(db, {0, 1, 2, 3});
    EXPECT_EQ(world.active_bits().ToVector(),
              (std::vector<std::size_t>{0, 1, 2, 3}));
  }
}

TEST(RunningExampleTest, Example6NaiveDCSatRejectsQs) {
  BlockchainDatabase db = MakeRunningExample();
  DcSatEngine engine(&db);
  auto qs = ParseDenialConstraint("qs() :- TxOut(t, s, 'U8Pk', a)");
  ASSERT_TRUE(qs.ok());
  DcSatOptions options;
  options.algorithm = DcSatAlgorithm::kNaive;
  auto result = engine.Check(*qs, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // U8Pk receives money in the world R∪{T1..T4}: constraint NOT satisfied.
  EXPECT_FALSE(result->satisfied);
  ASSERT_TRUE(result->witness.has_value());
  // The violating world contains T4 (tx 7 pays U8Pk) and its dependencies.
  EXPECT_EQ(*result->witness, (std::vector<PendingId>{0, 1, 2, 3}));
}

TEST(RunningExampleTest, Example8OptDCSatRejectsQs) {
  BlockchainDatabase db = MakeRunningExample();
  DcSatEngine engine(&db);
  auto qs = ParseDenialConstraint("qs() :- TxOut(t, s, 'U8Pk', a)");
  ASSERT_TRUE(qs.ok());
  DcSatOptions options;
  options.algorithm = DcSatAlgorithm::kOpt;
  options.use_precheck = false;  // Exercise the component machinery.
  auto result = engine.Check(*qs, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->satisfied);
  // Two components; only {T1..T4} covers the constant 'U8Pk'.
  EXPECT_EQ(result->stats.num_components, 2u);
  EXPECT_EQ(result->stats.num_components_covered, 1u);
}

TEST(RunningExampleTest, SatisfiedConstraintViaPrecheck) {
  BlockchainDatabase db = MakeRunningExample();
  DcSatEngine engine(&db);
  auto q = ParseDenialConstraint("q() :- TxOut(t, s, 'U9Pk', a)");
  ASSERT_TRUE(q.ok());
  auto result = engine.Check(*q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied);
  EXPECT_TRUE(result->stats.precheck_decided);
}

TEST(RunningExampleTest, DoubleSpendDenialConstraint) {
  BlockchainDatabase db = MakeRunningExample();
  DcSatEngine engine(&db);
  // "U2Pk's output (2,2) is spent by two different transactions" can never
  // happen (key constraint on TxIn), so the denial constraint is satisfied.
  auto q = ParseDenialConstraint(
      "q() :- TxIn(2, 2, 'U2Pk', a1, n1, g1), TxIn(2, 2, 'U2Pk', a2, n2, g2), "
      "n1 != n2");
  ASSERT_TRUE(q.ok());
  auto result = engine.Check(*q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied);
  // The pre-check cannot decide this one: over R ∪ T both spends coexist.
  EXPECT_FALSE(result->stats.precheck_decided);
}

TEST(RunningExampleTest, U7PkPaidInSomeWorldEitherWay) {
  BlockchainDatabase db = MakeRunningExample();
  DcSatEngine engine(&db);
  // U7Pk can be paid by T4 (tx 7) or by T5 (tx 8).
  auto q = ParseDenialConstraint("q() :- TxOut(t, s, 'U7Pk', a)");
  ASSERT_TRUE(q.ok());
  for (DcSatAlgorithm algorithm :
       {DcSatAlgorithm::kNaive, DcSatAlgorithm::kOpt,
        DcSatAlgorithm::kExhaustive}) {
    DcSatOptions options;
    options.algorithm = algorithm;
    auto result = engine.Check(*q, options);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->satisfied)
        << DcSatAlgorithmToString(algorithm);
  }
}

TEST(RunningExampleTest, AggregateOverPossibleWorlds) {
  BlockchainDatabase db = MakeRunningExample();
  DcSatEngine engine(&db);
  // Can U4Pk accumulate >= 4 bitcoins of outputs? R gives 0.5; T2 adds 3,
  // T3 adds 0.5 — max total 4. (Monotone: sum with >=.)
  auto reachable =
      ParseDenialConstraint("[q(sum(a)) :- TxOut(t, s, 'U4Pk', a)] >= 4");
  ASSERT_TRUE(reachable.ok());
  auto result = engine.Check(*reachable);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->satisfied);
  EXPECT_EQ(result->stats.algorithm_used, DcSatAlgorithm::kNaive);

  auto unreachable =
      ParseDenialConstraint("[q(sum(a)) :- TxOut(t, s, 'U4Pk', a)] >= 5");
  ASSERT_TRUE(unreachable.ok());
  result = engine.Check(*unreachable);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied);
}

TEST(RunningExampleTest, NonMonotoneFallsBackToExhaustive) {
  BlockchainDatabase db = MakeRunningExample();
  DcSatEngine engine(&db);
  // "= 2": non-monotone. U4Pk receives exactly two outputs in world
  // {T2(w/ T1), T3}-style combinations.
  auto q = ParseDenialConstraint(
      "[q(count()) :- TxOut(t, s, 'U4Pk', a)] = 3");
  ASSERT_TRUE(q.ok());
  auto result = engine.Check(*q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.algorithm_used, DcSatAlgorithm::kExhaustive);
  // R has (3,2,U4Pk,0.5); T2 and T3 add one each: world {T1,T2,T3} has 3.
  EXPECT_FALSE(result->satisfied);
}

TEST(RunningExampleTest, ExplicitAlgorithmValidation) {
  BlockchainDatabase db = MakeRunningExample();
  DcSatEngine engine(&db);
  // Non-monotone constraint: kNaive must refuse.
  auto non_monotone =
      ParseDenialConstraint("[q(count()) :- TxOut(t, s, 'U4Pk', a)] = 3");
  ASSERT_TRUE(non_monotone.ok());
  DcSatOptions naive;
  naive.algorithm = DcSatAlgorithm::kNaive;
  EXPECT_EQ(engine.Check(*non_monotone, naive).status().code(),
            StatusCode::kInvalidArgument);

  // Aggregates are never "connected": kOpt must refuse.
  auto aggregate =
      ParseDenialConstraint("[q(sum(a)) :- TxOut(t, s, 'U4Pk', a)] >= 4");
  ASSERT_TRUE(aggregate.ok());
  DcSatOptions opt;
  opt.algorithm = DcSatAlgorithm::kOpt;
  EXPECT_EQ(engine.Check(*aggregate, opt).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bcdb
