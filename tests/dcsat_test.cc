#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/answers.h"
#include "core/dcsat.h"
#include "query/parser.h"
#include "running_example.h"

namespace bcdb {
namespace {

using testing_fixtures::MakeRunningExample;

class DcSatTest : public ::testing::Test {
 protected:
  DcSatTest() : db_(MakeRunningExample()), engine_(&db_) {}

  DcSatResult Check(const std::string& text, const DcSatOptions& options) {
    auto q = ParseDenialConstraint(text);
    EXPECT_TRUE(q.ok()) << q.status();
    auto result = engine_.Check(*q, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return *result;
  }

  BlockchainDatabase db_;
  DcSatEngine engine_;
};

TEST_F(DcSatTest, AutoSelectsOptForConnectedConjunctive) {
  DcSatOptions options;
  auto result = Check("q() :- TxOut(t, s, 'U8Pk', a)", options);
  EXPECT_EQ(result.stats.algorithm_used, DcSatAlgorithm::kOpt);
}

TEST_F(DcSatTest, AutoSelectsNaiveForDisconnected) {
  DcSatOptions options;
  options.use_precheck = false;
  auto result =
      Check("q() :- TxOut(t1, s1, 'U8Pk', a1), TxOut(t2, s2, 'U5Pk', a2)",
            options);
  EXPECT_EQ(result.stats.algorithm_used, DcSatAlgorithm::kNaive);
  EXPECT_FALSE(result.satisfied);  // T4 and T1 coexist in one world.
}

TEST_F(DcSatTest, AutoSelectsNaiveForAggregate) {
  auto result =
      Check("[q(sum(a)) :- TxOut(t, s, 'U4Pk', a)] >= 1", DcSatOptions{});
  EXPECT_EQ(result.stats.algorithm_used, DcSatAlgorithm::kNaive);
}

TEST_F(DcSatTest, AutoSelectsExhaustiveForNegation) {
  // "Some transaction pays U7Pk without also paying U8Pk 1 at serial 2":
  // true in world R∪{T5} (tx 8 pays U7Pk, has no U8Pk output).
  auto result = Check(
      "q() :- TxOut(t, s, 'U7Pk', a), not TxOut(t, 2, 'U8Pk', 1)",
      DcSatOptions{});
  EXPECT_EQ(result.stats.algorithm_used, DcSatAlgorithm::kExhaustive);
  EXPECT_FALSE(result.satisfied);
}

TEST_F(DcSatTest, NegationCanBlockEverywhere) {
  // Transaction 7 (T4) always carries both the U7Pk and the U8Pk output,
  // so no world has one without the other.
  auto result = Check(
      "q() :- TxOut(7, s, 'U7Pk', a), not TxOut(7, 2, 'U8Pk', 1)",
      DcSatOptions{});
  EXPECT_EQ(result.stats.algorithm_used, DcSatAlgorithm::kExhaustive);
  EXPECT_TRUE(result.satisfied);
}

TEST_F(DcSatTest, OptionsAblationsAgree) {
  const char* queries[] = {
      "q() :- TxOut(t, s, 'U8Pk', a)",
      "q() :- TxOut(t, s, 'U9Pk', a)",
      "q() :- TxIn(2, 2, 'U2Pk', a1, n1, g1), TxIn(2, 2, 'U2Pk', a2, n2, g2), "
      "n1 != n2",
      "q() :- TxOut(t, s, 'U7Pk', a)",
  };
  for (const char* text : queries) {
    DcSatOptions baseline;
    baseline.algorithm = DcSatAlgorithm::kExhaustive;
    const bool expected = Check(text, baseline).satisfied;
    for (bool precheck : {true, false}) {
      for (bool covers : {true, false}) {
        for (bool pivot : {true, false}) {
          for (DcSatAlgorithm algorithm :
               {DcSatAlgorithm::kNaive, DcSatAlgorithm::kOpt}) {
            DcSatOptions options;
            options.algorithm = algorithm;
            options.use_precheck = precheck;
            options.use_covers = covers;
            options.use_pivot = pivot;
            EXPECT_EQ(Check(text, options).satisfied, expected)
                << text << " precheck=" << precheck << " covers=" << covers
                << " pivot=" << pivot << " algo=" << static_cast<int>(algorithm);
          }
        }
      }
    }
  }
}

TEST_F(DcSatTest, WitnessIsAlwaysAPossibleWorldSatisfyingQ) {
  auto q = ParseDenialConstraint("q() :- TxOut(t, s, 'U7Pk', a)");
  ASSERT_TRUE(q.ok());
  for (DcSatAlgorithm algorithm :
       {DcSatAlgorithm::kNaive, DcSatAlgorithm::kOpt,
        DcSatAlgorithm::kExhaustive}) {
    DcSatOptions options;
    options.algorithm = algorithm;
    auto result = engine_.Check(*q, options);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result->satisfied);
    ASSERT_TRUE(result->witness.has_value());
    // Verify the witness world satisfies the constraints and the query.
    WorldView world = db_.BaseView();
    for (PendingId id : *result->witness) {
      world.Activate(static_cast<TupleOwner>(id));
    }
    EXPECT_TRUE(db_.checker().CheckAll(world).ok());
    auto compiled = CompiledQuery::Compile(*q, &db_.database());
    ASSERT_TRUE(compiled.ok());
    EXPECT_TRUE(compiled->Evaluate(world));
  }
}

TEST_F(DcSatTest, CachesRefreshAfterMutation) {
  DcSatOptions options;
  options.use_precheck = false;
  auto before = Check("q() :- TxOut(t, s, 'U8Pk', a)", options);
  EXPECT_FALSE(before.satisfied);

  // Discard T4 (the only transaction paying U8Pk): now satisfied.
  ASSERT_TRUE(db_.DiscardPending(3).ok());
  auto after = Check("q() :- TxOut(t, s, 'U8Pk', a)", options);
  EXPECT_TRUE(after.satisfied);
  EXPECT_EQ(after.stats.num_valid_nodes, 4u);
}

TEST_F(DcSatTest, StatsArePopulated) {
  DcSatOptions options;
  options.algorithm = DcSatAlgorithm::kNaive;
  options.use_precheck = false;
  auto result = Check("q() :- TxOut(t, s, 'U9Pk', a)", options);
  EXPECT_TRUE(result.satisfied);
  EXPECT_EQ(result.stats.num_pending, 5u);
  EXPECT_EQ(result.stats.num_valid_nodes, 5u);
  EXPECT_EQ(result.stats.fd_conflict_pairs, 1u);
  EXPECT_EQ(result.stats.num_cliques, 2u);  // Example 6's two cliques.
  // Base world + two clique worlds evaluated.
  EXPECT_EQ(result.stats.num_worlds_evaluated, 3u);
  EXPECT_GE(result.stats.total_seconds, 0.0);
}

TEST_F(DcSatTest, ExhaustiveWorldLimit) {
  // Past its world budget the exhaustive search is undecided, not an error.
  auto q = ParseDenialConstraint("q() :- TxOut(t, s, 'U9Pk', a)");
  ASSERT_TRUE(q.ok());
  DcSatOptions options;
  options.algorithm = DcSatAlgorithm::kExhaustive;
  options.budget.max_worlds = 2;
  auto result = engine_.Check(*q, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->decided);
  EXPECT_TRUE(result->stats.budget_expired);
  EXPECT_LE(result->stats.num_worlds_evaluated, 2u);
}

TEST_F(DcSatTest, CompileErrorsPropagate) {
  auto q = ParseDenialConstraint("q() :- NoSuchRelation(x)");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(engine_.Check(*q).ok());
}

TEST_F(DcSatTest, CompiledQuerySurvivesCacheGrowthAndEviction) {
  // Regression: GetOrCompile used to return a raw pointer into the cache
  // vector, dangling as soon as a later compile reallocated or FIFO-evicted
  // it. Hold the first compiled query while pushing the cache through one
  // full capacity of growth plus evictions, then use it — under asan, the
  // old code faults here.
  auto held_q = ParseDenialConstraint("q() :- TxOut(t, s, 'U1Pk', a)");
  ASSERT_TRUE(held_q.ok());
  auto held = engine_.GetOrCompile(*held_q);
  ASSERT_TRUE(held.ok()) << held.status();
  const DcSatResult before = Check("q() :- TxOut(t, s, 'U1Pk', a)", {});

  for (std::size_t i = 0; i < DcSatEngine::kCompiledCacheCapacity + 8; ++i) {
    auto q = ParseDenialConstraint("q() :- TxOut(t, s, pk, " +
                                   std::to_string(i) + ")");
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine_.GetOrCompile(*q).ok());
  }

  engine_.PrepareSteadyState();
  auto result = engine_.CheckPrepared(**held, Tuple(),
                                      engine_.Analyze(*held_q).tractability);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->satisfied, before.satisfied);
  EXPECT_EQ(result->decided, before.decided);
}

TEST_F(DcSatTest, PossibleAnswersLeaveTheCachedPlans) {
  // PossibleAnswers decides its candidates on one plan of q's body with
  // the head variables as parameters. Checking each head-bound query
  // instead compiled one plan per candidate and, past the cache's
  // capacity, evicted every plan it held.
  const std::size_t kExtra = DcSatEngine::kCompiledCacheCapacity + 37;
  for (std::size_t i = 0; i < kExtra; ++i) {
    ASSERT_TRUE(db_.InsertCurrent(
                       "TxOut",
                       Tuple({Value::Int(static_cast<std::int64_t>(100 + i)),
                              Value::Int(1),
                              Value::Str("W" + std::to_string(i)),
                              Value::Int(1)}))
                    .ok());
  }
  auto held_q = ParseDenialConstraint("q() :- TxOut(t, s, 'U1Pk', a)");
  ASSERT_TRUE(held_q.ok());
  auto held = engine_.GetOrCompile(*held_q);
  ASSERT_TRUE(held.ok()) << held.status();

  auto q = ParseDenialConstraint("q(pk) :- TxOut(t, s, pk, a)");
  ASSERT_TRUE(q.ok());
  auto possible = PossibleAnswers(engine_, *q);
  ASSERT_TRUE(possible.ok()) << possible.status();
  EXPECT_GT(possible->size(), DcSatEngine::kCompiledCacheCapacity);

  auto again = engine_.GetOrCompile(*held_q);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *held);
}

TEST_F(DcSatTest, CompiledCacheHitsWhenCyclingFiftyTexts) {
  // An ad-hoc client cycling a fixed list of texts in order: with a FIFO
  // cache smaller than the list every request evicts the next one needed,
  // so the second pass would recompile everything.
  std::vector<DenialConstraint> queries;
  for (int i = 0; i < 50; ++i) {
    auto q = ParseDenialConstraint("q() :- TxOut(t, s, pk, " +
                                   std::to_string(i) + ")");
    ASSERT_TRUE(q.ok());
    queries.push_back(*q);
  }
  // Holding the first-pass queries keeps their addresses from being reused
  // by a recompile, so equal pointers mean cache hits.
  std::vector<std::shared_ptr<const CompiledQuery>> first_pass;
  for (const DenialConstraint& q : queries) {
    auto compiled = engine_.GetOrCompile(q);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    first_pass.push_back(*compiled);
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto compiled = engine_.GetOrCompile(queries[i]);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    EXPECT_EQ(*compiled, first_pass[i]) << "text " << i;
  }
}

// The compiled-query cache is keyed by the query itself, never by its
// display text, which printed reals to 6 significant digits, dropped head
// variables beside an aggregate, and cannot tell a quote inside a string
// constant from the quotes around it. Each check below on a warm engine
// must equal the one on a fresh engine.

TEST_F(DcSatTest, ThresholdsThatPrintedAlikeGetTheirOwnPlans) {
  // U7Pk can collect 4 (T5) but never more.
  const DcSatResult at_four =
      Check("[q(sum(a)) :- TxOut(t, s, 'U7Pk', a)] >= 4", {});
  EXPECT_FALSE(at_four.satisfied);
  const std::string above =
      "[q(sum(a)) :- TxOut(t, s, 'U7Pk', a)] >= 4.0000001";
  const DcSatResult warm = Check(above, {});
  DcSatEngine fresh(&db_);
  auto q = ParseDenialConstraint(above);
  ASSERT_TRUE(q.ok());
  auto cold = fresh.Check(*q);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_TRUE(cold->satisfied);
  EXPECT_EQ(warm.satisfied, cold->satisfied);
  EXPECT_EQ(warm.decided, cold->decided);
}

TEST_F(DcSatTest, HeadVariablesBesideAnAggregateAreRejectedWarmOrCold) {
  auto plain =
      ParseDenialConstraint("[q(sum(a)) :- TxOut(t, s, 'U7Pk', a)] >= 1");
  ASSERT_TRUE(plain.ok());
  DenialConstraint headed = *plain;
  headed.head_vars.push_back(Term::Var("t"));
  EXPECT_EQ(engine_.Check(headed).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine_.Check(*plain).ok());
  EXPECT_EQ(engine_.Check(headed).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DcSatTest, QuotedStringConstantDoesNotReuseALookalikePlan) {
  auto two = ParseDenialConstraint(
      "q() :- TxOut(t, s, pk, a), pk = 'U7Pk', pk != 'U8Pk'");
  ASSERT_TRUE(two.ok());
  // One comparison against a constant that holds "', pk != '".
  DenialConstraint one = *two;
  one.comparisons = {Comparison{Term::Var("pk"), ComparisonOp::kEq,
                                Term::Const("U7Pk', pk != 'U8Pk")}};
  ASSERT_EQ(one.ToString(), two->ToString());

  auto two_result = engine_.Check(*two);
  ASSERT_TRUE(two_result.ok()) << two_result.status();
  EXPECT_FALSE(two_result->satisfied);
  auto warm = engine_.Check(one);
  ASSERT_TRUE(warm.ok()) << warm.status();
  DcSatEngine fresh(&db_);
  auto cold = fresh.Check(one);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_TRUE(cold->satisfied);
  EXPECT_EQ(warm->satisfied, cold->satisfied);
  EXPECT_NE(*engine_.GetOrCompile(one), *engine_.GetOrCompile(*two));
}

TEST_F(DcSatTest, SumOverAStringAttributeIsRejected) {
  // Summing the pk column used to throw from inside the evaluation.
  auto q = ParseDenialConstraint("[q(sum(pk)) :- TxOut(t, s, pk, a)] >= 4");
  ASSERT_TRUE(q.ok());
  auto result = engine_.Check(*q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("STRING attribute pk"),
            std::string::npos)
      << result.status();
}

TEST_F(DcSatTest, IntAndEqualRealConstantsShareOnePlan) {
  auto as_int = ParseDenialConstraint("q() :- TxOut(t, s, 'U7Pk', 4)");
  auto as_real = ParseDenialConstraint("q() :- TxOut(t, s, 'U7Pk', 4.0)");
  ASSERT_TRUE(as_int.ok() && as_real.ok());
  EXPECT_EQ(*as_int, *as_real);
  EXPECT_EQ(*engine_.GetOrCompile(*as_int), *engine_.GetOrCompile(*as_real));
}

}  // namespace
}  // namespace bcdb
