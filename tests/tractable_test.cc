#include <gtest/gtest.h>

#include "core/dcsat.h"
#include "core/possible_worlds.h"
#include "core/tractable.h"
#include "query/compiled_query.h"
#include "query/parser.h"
#include "util/rng.h"

namespace bcdb {
namespace {

/// Instances restricted to the tractable constraint classes of Theorem 1:
/// FD-only (`with_ind = false`) or IND-only (`keys = false`).
BlockchainDatabase MakeInstance(std::uint64_t seed, bool keys, bool inds) {
  Xoshiro256 rng(seed);
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "S", {Attribute{"x", ValueType::kInt, false},
                            Attribute{"y", ValueType::kInt, true}}))
                  .ok());
  ConstraintSet constraints;
  if (keys) {
    constraints.AddFd(*FunctionalDependency::Key(catalog, "R", {"a"}));
    constraints.AddFd(
        *FunctionalDependency::Create(catalog, "S", {"x"}, {"y"}));
  }
  if (inds) {
    constraints.AddInd(
        *InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"}));
  }
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());

  const std::size_t base_r = rng.NextBelow(3);
  for (std::size_t a = 0; a < base_r; ++a) {
    EXPECT_TRUE(db->InsertCurrent(
                      "R", Tuple({Value::Int(static_cast<std::int64_t>(a)),
                                  Value::Int(rng.NextInRange(0, 3))}))
                    .ok());
  }
  const std::size_t num_pending = 3 + rng.NextBelow(4);
  for (std::size_t t = 0; t < num_pending; ++t) {
    Transaction txn("P" + std::to_string(t));
    const std::size_t num_tuples = 1 + rng.NextBelow(3);
    for (std::size_t i = 0; i < num_tuples; ++i) {
      if (rng.NextBool(0.5)) {
        txn.Add("R", Tuple({Value::Int(rng.NextInRange(0, 4)),
                            Value::Int(rng.NextInRange(0, 3))}));
      } else {
        txn.Add("S", Tuple({Value::Int(rng.NextInRange(0, 4)),
                            Value::Int(rng.NextInRange(0, 3))}));
      }
    }
    EXPECT_TRUE(db->AddPending(txn).ok());
  }
  return std::move(*db);
}

bool OracleSatisfied(const BlockchainDatabase& db, const DenialConstraint& q) {
  auto worlds = EnumeratePossibleWorlds(db, 1u << 16);
  EXPECT_TRUE(worlds.ok());
  auto compiled = CompiledQuery::Compile(q, &db.database());
  EXPECT_TRUE(compiled.ok());
  for (const WorldView& world : *worlds) {
    if (compiled->Evaluate(world)) return false;
  }
  return true;
}

const char* kPositiveQueries[] = {
    "q() :- R(x, y)",
    "q() :- R(0, y)",
    "q() :- R(x, 2), S(x, z)",
    "q() :- R(x, y), S(x, y)",
    "q() :- S(x, y), S(z, y), x != z",
    "q() :- R(x, y), x < y",
    "q() :- R(2, y), S(2, z)",
};

class TractableTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TractableTest, FdOnlyFragmentMatchesOracle) {
  BlockchainDatabase db =
      MakeInstance(GetParam(), /*keys=*/true, /*inds=*/false);
  DcSatEngine engine(&db);
  for (const char* text : kPositiveQueries) {
    auto q = ParseDenialConstraint(text);
    ASSERT_TRUE(q.ok());
    auto result = engine.Check(*q);
    ASSERT_TRUE(result.ok()) << text;
    EXPECT_EQ(result->stats.algorithm_used, DcSatAlgorithm::kTractable)
        << text;
    EXPECT_EQ(result->satisfied, OracleSatisfied(db, *q))
        << text << " seed " << GetParam();
    if (!result->satisfied) {
      ASSERT_TRUE(result->witness.has_value());
      EXPECT_TRUE(IsPossibleWorld(db, *result->witness)) << text;
      WorldView world = db.BaseView();
      for (PendingId id : *result->witness) {
        world.Activate(static_cast<TupleOwner>(id));
      }
      auto compiled = CompiledQuery::Compile(*q, &db.database());
      ASSERT_TRUE(compiled.ok());
      EXPECT_TRUE(compiled->Evaluate(world)) << text;
    }
  }
}

TEST_P(TractableTest, IndOnlyFragmentMatchesOracle) {
  BlockchainDatabase db =
      MakeInstance(GetParam() + 500, /*keys=*/false, /*inds=*/true);
  DcSatEngine engine(&db);
  const char* queries[] = {
      "q() :- R(x, y)",
      "q() :- S(x, y), R(x, z)",
      "q() :- S(3, y)",
      "[q(count()) :- S(x, y)] > 2",
      "[q(sum(y)) :- S(x, y)] >= 4",
  };
  for (const char* text : queries) {
    auto q = ParseDenialConstraint(text);
    ASSERT_TRUE(q.ok());
    auto result = engine.Check(*q);
    ASSERT_TRUE(result.ok()) << text;
    EXPECT_EQ(result->stats.algorithm_used, DcSatAlgorithm::kTractable)
        << text;
    EXPECT_EQ(result->satisfied, OracleSatisfied(db, *q))
        << text << " seed " << GetParam();
  }
}

TEST_P(TractableTest, FragmentsCanBeDisabled) {
  BlockchainDatabase db =
      MakeInstance(GetParam() + 900, /*keys=*/true, /*inds=*/false);
  DcSatEngine engine(&db);
  auto q = ParseDenialConstraint("q() :- R(x, y), S(x, y)");
  ASSERT_TRUE(q.ok());
  // An explicitly requested general search never tries a fragment.
  DcSatOptions options;
  options.algorithm = DcSatAlgorithm::kOpt;
  auto general = engine.Check(*q, options);
  ASSERT_TRUE(general.ok());
  EXPECT_NE(general->stats.algorithm_used, DcSatAlgorithm::kTractable);
  auto fast = engine.Check(*q);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->satisfied, general->satisfied);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TractableTest,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(TractableTest, OutsideFragmentAbstains) {
  // Both keys and INDs: CoNP-complete in general; the fast path must not
  // engage.
  BlockchainDatabase db = MakeInstance(7, /*keys=*/true, /*inds=*/true);
  DcSatEngine engine(&db);
  auto q = ParseDenialConstraint("q() :- R(x, y)");
  ASSERT_TRUE(q.ok());
  auto result = engine.Check(*q);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->stats.algorithm_used, DcSatAlgorithm::kTractable);
}

TEST(TractableTest, FdOnlySkipsNegationAndAggregatesWithKeys) {
  BlockchainDatabase db = MakeInstance(8, /*keys=*/true, /*inds=*/false);
  DcSatEngine engine(&db);
  auto negated = ParseDenialConstraint("q() :- R(x, y), not S(x, y)");
  ASSERT_TRUE(negated.ok());
  auto result = engine.Check(*negated);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.algorithm_used, DcSatAlgorithm::kExhaustive);

  auto aggregate = ParseDenialConstraint("[q(count()) :- R(x, y)] > 1");
  ASSERT_TRUE(aggregate.ok());
  result = engine.Check(*aggregate);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.algorithm_used, DcSatAlgorithm::kNaive);
}

TEST(TractableTest, ExplicitTractableRequestRejected) {
  BlockchainDatabase db = MakeInstance(9, true, false);
  DcSatEngine engine(&db);
  auto q = ParseDenialConstraint("q() :- R(x, y)");
  ASSERT_TRUE(q.ok());
  DcSatOptions options;
  options.algorithm = DcSatAlgorithm::kTractable;
  EXPECT_EQ(engine.Check(*q, options).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bcdb
