#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/analyzer.h"
#include "core/dcsat.h"
#include "query/compiled_query.h"
#include "query/parser.h"
#include "util/rng.h"

namespace bcdb {
namespace {

// Differential harness for the one decision path: for every instance and
// constraint, DcSatEngine::Check(q) — which classifies q itself, once per
// compiled query — must be bit-identical (decided, satisfied, witness,
// algorithm_used) to CheckPrepared(q, compiled, Analyze(q)), the
// report-carrying path the monitor uses, and verdict-identical to the
// general search kAuto falls back to, requested explicitly. Classification
// only routes, it never re-decides.

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

// Spans every tractability class in at least one constraint configuration:
// positive CQs (PTIME under either one-sided class, CoNP-mixed otherwise),
// monotone aggregates (IND fragment), non-monotone shapes (CoNP-mixed
// everywhere), and a statically refutable body.
const char* kQueries[] = {
    "q() :- R(x, y)",
    "q() :- R(0, y)",
    "q() :- R(x, 2), S(x, z)",
    "q() :- S(x, y), R(x, b), b > y",
    "q() :- S(x, y), S(z, y), x != z",
    "q() :- R(x, y), x < y",
    "[q(count()) :- S(x, y)] > 2",
    "[q(sum(y)) :- S(x, y)] >= 4",
    "[q(count()) :- R(x, y)] < 2",
    "q() :- R(x, y), not S(x, y)",
    "q() :- R(x, y), x > x",
};

struct Config {
  const char* name;
  bool keys;
  bool inds;
};

constexpr Config kConfigs[] = {
    {"fd-only", true, false},
    {"ind-only", false, true},
    {"mixed", true, true},
};

class DispatchDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DispatchDifferentialTest, ClassifiedMatchesLegacyAndGeneral) {
  for (const Config& config : kConfigs) {
    BlockchainDatabase db =
        MakeInstance(GetParam() * 7 + (config.keys ? 1 : 0) +
                         (config.inds ? 2 : 0),
                     config.keys, config.inds);
    DcSatEngine engine(&db);
    for (const char* text : kQueries) {
      SCOPED_TRACE(std::string(config.name) + " seed " +
                   std::to_string(GetParam()) + ": " + text);
      auto q = ParseDenialConstraint(text);
      ASSERT_TRUE(q.ok());
      AnalysisReport report = engine.Analyze(*q);
      ASSERT_TRUE(report.ok()) << report.ErrorSummary();

      auto checked = engine.Check(*q);
      ASSERT_TRUE(checked.ok());
      auto compiled = CompiledQuery::Compile(*q, &db.database());
      ASSERT_TRUE(compiled.ok());
      auto prepared = engine.CheckPrepared(*q, *compiled, report);
      ASSERT_TRUE(prepared.ok());
      DcSatOptions general_options;
      general_options.algorithm = GeneralSearchAlgorithm(*q, report.analysis);
      auto general = engine.Check(*q, general_options);
      ASSERT_TRUE(general.ok());

      // Bit-identity between the cached class and the analyzer's: same
      // routing, so the same verdict AND the same witness world.
      EXPECT_EQ(checked->decided, prepared->decided);
      EXPECT_EQ(checked->satisfied, prepared->satisfied);
      EXPECT_EQ(checked->witness, prepared->witness);
      EXPECT_EQ(checked->stats.algorithm_used,
                prepared->stats.algorithm_used);

      // Verdict-identity against the pure general search (the oracle-grade
      // reference): the fragments and the classifier may only change how
      // the answer is computed, never the answer.
      EXPECT_EQ(checked->decided, general->decided);
      EXPECT_EQ(checked->satisfied, general->satisfied);
      EXPECT_EQ(checked->witness.has_value(), general->witness.has_value());

      // Classification sanity: PTIME classes must actually take the
      // tractable path, the mixed class must never try it, and a trivially
      // unsatisfiable body never touches data.
      if (report.tractability == TractabilityClass::kPtimeFdOnly ||
          report.tractability == TractabilityClass::kPtimeIndOnly) {
        EXPECT_EQ(checked->stats.algorithm_used, DcSatAlgorithm::kTractable);
      }
      if (report.tractability == TractabilityClass::kCoNpMixed) {
        EXPECT_NE(checked->stats.algorithm_used, DcSatAlgorithm::kTractable);
      }
      if (report.tractability == TractabilityClass::kTriviallyUnsat) {
        EXPECT_EQ(checked->stats.algorithm_used, DcSatAlgorithm::kStatic);
        EXPECT_TRUE(checked->satisfied);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 30));

// The class assignments the differential loop relies on, pinned per
// configuration for one representative query of each shape.
TEST(DispatchClassificationTest, ClassesPerConfiguration) {
  struct Expectation {
    const char* query;
    TractabilityClass fd_only;
    TractabilityClass ind_only;
    TractabilityClass mixed;
  };
  const Expectation kExpectations[] = {
      {"q() :- R(x, y)", TractabilityClass::kPtimeFdOnly,
       TractabilityClass::kPtimeIndOnly, TractabilityClass::kCoNpMixed},
      {"[q(sum(y)) :- S(x, y)] >= 4", TractabilityClass::kCoNpMixed,
       TractabilityClass::kPtimeIndOnly, TractabilityClass::kCoNpMixed},
      {"q() :- R(x, y), not S(x, y)", TractabilityClass::kCoNpMixed,
       TractabilityClass::kCoNpMixed, TractabilityClass::kCoNpMixed},
      {"q() :- R(x, y), x > x", TractabilityClass::kTriviallyUnsat,
       TractabilityClass::kTriviallyUnsat, TractabilityClass::kTriviallyUnsat},
  };
  for (const Config& config : kConfigs) {
    BlockchainDatabase db = MakeInstance(1, config.keys, config.inds);
    DcSatEngine engine(&db);
    for (const Expectation& expectation : kExpectations) {
      SCOPED_TRACE(std::string(config.name) + ": " + expectation.query);
      auto q = ParseDenialConstraint(expectation.query);
      ASSERT_TRUE(q.ok());
      AnalysisReport report = engine.Analyze(*q);
      ASSERT_TRUE(report.ok());
      const TractabilityClass want =
          config.keys ? (config.inds ? expectation.mixed : expectation.fd_only)
                      : expectation.ind_only;
      EXPECT_EQ(report.tractability, want);
    }
  }
}

}  // namespace
}  // namespace bcdb
