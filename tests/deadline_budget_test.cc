#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dcsat.h"
#include "core/monitor.h"
#include "query/parser.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace bcdb {
namespace {

using Verdict = ConstraintMonitor::Verdict;

DenialConstraint Q(const std::string& text) {
  auto q = ParseDenialConstraint(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

/// R(a, b) with key a; pending double-spend pairs (i,0) vs (i,1) for i < k,
/// so |Poss(D)| = 3^k — the Theorem-1 blowup instance.
BlockchainDatabase MakeConflictLadder(std::size_t k) {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  ConstraintSet constraints;
  auto key = FunctionalDependency::Key(catalog, "R", {"a"});
  EXPECT_TRUE(key.ok());
  constraints.AddFd(std::move(*key));
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());
  for (std::size_t i = 0; i < k; ++i) {
    for (std::int64_t b : {0, 1}) {
      Transaction txn;
      txn.Add("R",
              Tuple({Value::Int(static_cast<std::int64_t>(i)), Value::Int(b)}));
      EXPECT_TRUE(db->AddPending(txn).ok());
    }
  }
  return std::move(*db);
}

TEST(BudgetLimitsTest, DefaultIsUnlimited) {
  BudgetLimits limits;
  EXPECT_TRUE(limits.unlimited());
  limits.max_worlds = 1;
  EXPECT_FALSE(limits.unlimited());
  limits = BudgetLimits{};
  limits.deadline_ms = 0.5;
  EXPECT_FALSE(limits.unlimited());
}

TEST(BudgetLimitsTest, ScaledGrowsBoundedFieldsOnly) {
  BudgetLimits limits;
  limits.max_worlds = 10;
  limits.deadline_ms = 2;
  BudgetLimits scaled = limits.Scaled(4);
  EXPECT_EQ(scaled.max_worlds, 40u);
  EXPECT_DOUBLE_EQ(scaled.deadline_ms, 8);
  // Unlimited stays unlimited.
  BudgetLimits deadline_only;
  deadline_only.deadline_ms = 2;
  EXPECT_EQ(deadline_only.Scaled(4).max_worlds, 0u);
  EXPECT_DOUBLE_EQ(BudgetLimits{}.Scaled(4).deadline_ms, 0);
  // Saturates instead of overflowing.
  limits.max_worlds = SIZE_MAX / 2;
  EXPECT_EQ(limits.Scaled(1e9).max_worlds, SIZE_MAX);
}

TEST(BudgetTest, WorkLimitLatchesExpired) {
  BudgetLimits limits;
  limits.max_worlds = 2;
  Budget budget(limits);
  EXPECT_TRUE(budget.ChargeWorld());
  EXPECT_TRUE(budget.ChargeWorld());
  EXPECT_FALSE(budget.ChargeWorld());  // Third world is over budget.
  EXPECT_TRUE(budget.Expired());       // ...and the flag latches.
  EXPECT_FALSE(budget.ChargeWorld());  // Later charges fail too.
  EXPECT_EQ(budget.worlds_charged(), 4u);
}

TEST(BudgetTest, UnlimitedNeverExpires) {
  Budget budget(BudgetLimits{});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(budget.ChargeWorld());
    EXPECT_FALSE(budget.Expired());
  }
}

TEST(BudgetTest, PastDeadlineExpires) {
  BudgetLimits limits;
  limits.deadline_ms = 1e-6;  // Effectively already past.
  Budget budget(limits);
  // The clock is polled once every 64 probes, so expiry is observed within
  // a bounded number of probes.
  bool expired = false;
  for (int i = 0; i < 130 && !expired; ++i) expired = budget.Expired();
  EXPECT_TRUE(expired);
}

// --- Exhaustive path under a work budget -------------------------------

TEST(DeadlineDcSatTest, ExhaustiveWorldCapReturnsUndecidedWithPartialStats) {
  BlockchainDatabase db = MakeConflictLadder(8);  // 3^8 = 6561 worlds.
  DcSatEngine engine(&db);
  DenialConstraint q = Q("[q(count()) :- R(x, y)] = 99");  // Satisfied.

  DcSatOptions budgeted;
  budgeted.budget.max_worlds = 100;
  auto result = engine.Check(q, budgeted);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.algorithm_used, DcSatAlgorithm::kExhaustive);
  EXPECT_FALSE(result->decided);
  EXPECT_FALSE(result->satisfied);
  EXPECT_TRUE(result->stats.budget_expired);
  // Partial progress is reported: some worlds were evaluated, short of 3^8.
  EXPECT_GT(result->stats.num_worlds_evaluated, 0u);
  EXPECT_LE(result->stats.num_worlds_evaluated, 100u);

  auto unlimited = engine.Check(q);
  ASSERT_TRUE(unlimited.ok());
  EXPECT_TRUE(unlimited->decided);
  EXPECT_TRUE(unlimited->satisfied);
  EXPECT_FALSE(unlimited->stats.budget_expired);
  EXPECT_EQ(unlimited->stats.num_worlds_evaluated, 6561u);
}

TEST(DeadlineDcSatTest, ViolatingWorldBeforeExpiryStillDecides) {
  BlockchainDatabase db = MakeConflictLadder(6);
  DcSatEngine engine(&db);
  // The BFS enumerates the base world first, then the single-transaction
  // worlds — the second world already has exactly one R tuple, so it
  // violates "count() = 1" within a 2-world budget: one counterexample is
  // conclusive no matter how tight the budget.
  DenialConstraint q = Q("[q(count()) :- R(x, y)] = 1");
  DcSatOptions budgeted;
  budgeted.budget.max_worlds = 2;
  auto result = engine.Check(q, budgeted);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->decided);
  EXPECT_FALSE(result->satisfied);
  EXPECT_LE(result->stats.num_worlds_evaluated, 2u);
}

// --- Clique path under a work budget -----------------------------------

TEST(DeadlineDcSatTest, CliqueCapReturnsUndecidedAndUnlimitedDecides) {
  BlockchainDatabase db = MakeConflictLadder(7);
  DcSatEngine engine(&db);
  DenialConstraint q = Q("q() :- R(x, 0), R(x, 1)");  // Satisfied (kept).

  DcSatOptions budgeted;
  budgeted.algorithm = DcSatAlgorithm::kOpt;
  budgeted.budget.max_worlds = 2;  // Each clique is charged as one world.
  auto result = engine.Check(q, budgeted);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->decided);
  EXPECT_FALSE(result->satisfied);
  EXPECT_TRUE(result->stats.budget_expired);
  EXPECT_LT(result->stats.components_completed, result->stats.num_components);

  DcSatOptions unlimited = budgeted;
  unlimited.budget = BudgetLimits{};
  result = engine.Check(q, unlimited);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->decided);
  EXPECT_TRUE(result->satisfied);
  EXPECT_FALSE(result->stats.budget_expired);
  EXPECT_EQ(result->stats.components_completed, result->stats.num_components);
}

TEST(DeadlineDcSatTest, ComponentCapBoundsBreadth) {
  BlockchainDatabase db = MakeConflictLadder(7);
  DcSatEngine engine(&db);
  DenialConstraint q = Q("q() :- R(x, 0), R(x, 1)");
  DcSatOptions budgeted;
  budgeted.algorithm = DcSatAlgorithm::kOpt;
  // Every searched component charges at least one world, so a world cap
  // bounds the breadth of the scan too.
  budgeted.budget.max_worlds = 3;
  auto result = engine.Check(q, budgeted);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->decided);
  EXPECT_TRUE(result->stats.budget_expired);
  EXPECT_LE(result->stats.components_completed, 3u);
}

TEST(DeadlineDcSatTest, TightDeadlineReturnsPromptlyOnBlowupInstance) {
  BlockchainDatabase db = MakeConflictLadder(12);  // 3^12 = 531441 worlds.
  DcSatEngine engine(&db);
  engine.PrepareSteadyState();
  DenialConstraint q = Q("[q(count()) :- R(x, y)] = 99");
  DcSatOptions budgeted;
  budgeted.budget.deadline_ms = 1;
  Stopwatch watch;
  auto result = engine.Check(q, budgeted);
  const double elapsed_ms = watch.ElapsedSeconds() * 1e3;
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->decided);
  EXPECT_TRUE(result->stats.budget_expired);
  // Cooperative preemption points are microseconds apart, so the overshoot
  // stays far below the unbudgeted run time (generous bound: sanitizer and
  // loaded-CI friendly, still an order under the full enumeration).
  EXPECT_LT(elapsed_ms, 500.0);
}

// --- Unlimited-equivalence differential --------------------------------

/// A *non-binding* budget must be bit-identical to no budget at all: same
/// satisfied flag, same witness, same clique/world counts, decided == true.
TEST(DeadlineDcSatTest, HugeBudgetMatchesUnlimitedBitForBit) {
  const char* kQueries[] = {
      "q() :- R(x, y)",
      "q() :- R(0, y)",
      "q() :- R(x, 2)",
      "q() :- R(x, y), S(x, z)",
      "q() :- R(x, 1), S(x, 2)",
  };
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Xoshiro256 rng(seed);
    Catalog catalog;
    ASSERT_TRUE(catalog
                    .AddRelation(RelationSchema(
                        "R", {Attribute{"a", ValueType::kInt, false},
                              Attribute{"b", ValueType::kInt, false}}))
                    .ok());
    ASSERT_TRUE(catalog
                    .AddRelation(RelationSchema(
                        "S", {Attribute{"x", ValueType::kInt, false},
                              Attribute{"y", ValueType::kInt, true}}))
                    .ok());
    ConstraintSet constraints;
    auto key = FunctionalDependency::Key(catalog, "R", {"a"});
    ASSERT_TRUE(key.ok());
    constraints.AddFd(std::move(*key));
    auto db =
        BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
    ASSERT_TRUE(db.ok());
    const std::size_t num_pending = 4 + rng.NextBelow(3);
    for (std::size_t t = 0; t < num_pending; ++t) {
      Transaction txn("P" + std::to_string(t));
      const std::size_t num_tuples = 1 + rng.NextBelow(2);
      for (std::size_t i = 0; i < num_tuples; ++i) {
        if (rng.NextBool(0.5)) {
          txn.Add("R", Tuple({Value::Int(rng.NextInRange(0, 5)),
                              Value::Int(rng.NextInRange(0, 3))}));
        } else {
          txn.Add("S", Tuple({Value::Int(rng.NextInRange(0, 5)),
                              Value::Int(rng.NextInRange(0, 3))}));
        }
      }
      ASSERT_TRUE(db->AddPending(txn).ok());
    }

    DcSatEngine engine(&*db);
    for (const char* text : kQueries) {
      DenialConstraint q = Q(text);
      // Force the clique search: with an FD-only constraint set the
      // tractable fragment would otherwise decide everything without ever
      // consulting the budget.
      DcSatOptions unlimited;
      unlimited.algorithm = DcSatAlgorithm::kOpt;
      auto reference = engine.Check(q, unlimited);
      ASSERT_TRUE(reference.ok()) << text;

      DcSatOptions huge = unlimited;
      huge.budget.deadline_ms = 1e9;
      huge.budget.max_worlds = std::size_t{1} << 60;
      auto budgeted = engine.Check(q, huge);
      ASSERT_TRUE(budgeted.ok()) << text;

      EXPECT_TRUE(budgeted->decided) << text;
      EXPECT_EQ(budgeted->satisfied, reference->satisfied)
          << text << " seed=" << seed;
      EXPECT_EQ(budgeted->witness, reference->witness) << text;
      EXPECT_FALSE(budgeted->stats.budget_expired) << text;
      EXPECT_EQ(budgeted->stats.num_cliques, reference->stats.num_cliques)
          << text;
      EXPECT_EQ(budgeted->stats.num_worlds_evaluated,
                reference->stats.num_worlds_evaluated)
          << text;
      EXPECT_EQ(budgeted->stats.components_completed,
                reference->stats.components_completed)
          << text;
    }
  }
}

// --- Monitor escalation ------------------------------------------------

TEST(MonitorBudgetTest, UndecidedEscalatesToDecidedAcrossPolls) {
  BlockchainDatabase db = MakeConflictLadder(3);  // 3^3 = 27 worlds.
  MonitorOptions options;
  options.budget.max_worlds = 8;  // Work-based: deterministic expiry.
  ConstraintMonitor monitor(&db, options);
  auto handle = monitor.Add("count", Q("[q(count()) :- R(x, y)] = 99"));
  ASSERT_TRUE(handle.ok());

  // Each undecided verdict doubles the entry's budget.
  // Poll 1 (scale 1, cap 8): expires — the first verdict is kUndecided.
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].after, Verdict::kUndecided);
  EXPECT_EQ(monitor.poll_stats().undecided_verdicts, 1u);
  EXPECT_EQ(monitor.poll_stats().budget_escalations, 1u);

  // Poll 2 (scale 2, cap 16): still short of 27 worlds. No transition —
  // the verdict stays kUndecided — but the retry happened despite the
  // database being quiescent.
  changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  EXPECT_TRUE(changes->empty());
  EXPECT_EQ(monitor.poll_stats().undecided_verdicts, 2u);
  EXPECT_EQ(monitor.verdict(*handle), Verdict::kUndecided);

  // Poll 3: two consecutive failures trigger one backoff poll.
  changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  EXPECT_TRUE(changes->empty());
  EXPECT_EQ(monitor.poll_stats().backoff_skips, 1u);
  EXPECT_EQ(monitor.poll_stats().undecided_verdicts, 2u);

  // Poll 4 (scale 4, cap 32 >= 27): the check completes and the verdict
  // settles — kImpossible, reported as a transition from kUndecided.
  changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].before, Verdict::kUndecided);
  EXPECT_EQ((*changes)[0].after, Verdict::kImpossible);
  EXPECT_EQ(monitor.verdict(*handle), Verdict::kImpossible);
}

TEST(MonitorBudgetTest, RepeatOffenderBacksOffExponentially) {
  BlockchainDatabase db = MakeConflictLadder(5);  // 3^5 = 243 worlds.
  MonitorOptions options;
  // Even the fully escalated cap (64 worlds) is short of 243: undecided
  // forever.
  options.budget.max_worlds = 1;
  ConstraintMonitor monitor(&db, options);
  ASSERT_TRUE(monitor.Add("count", Q("[q(count()) :- R(x, y)] = 99")).ok());

  // Schedule once the streak starts: retry, retry, skip 1, retry, skip 2,
  // retry, skip 4, then a retry after every 8 skips.
  for (int poll = 0; poll < 30; ++poll) {
    ASSERT_TRUE(monitor.Poll().ok());
  }
  const auto& stats = monitor.poll_stats();
  // Backoff spaces the retries out: of 30 polls, most are sat out.
  EXPECT_EQ(stats.undecided_verdicts, 7u);
  EXPECT_EQ(stats.backoff_skips, 23u);
  // Escalation stops at the cap: the budget doubled six times (1 -> 64),
  // and the seventh undecided verdict did not escalate.
  EXPECT_EQ(stats.budget_escalations, 6u);
  EXPECT_EQ(monitor.verdict(MonitorHandle()), Verdict::kUnknown);

  // A mutation that dirties the constraint bypasses the backoff: the next
  // poll re-checks immediately.
  const std::size_t undecided_before = stats.undecided_verdicts;
  Transaction txn;
  txn.Add("R", Tuple({Value::Int(100), Value::Int(0)}));
  ASSERT_TRUE(db.AddPending(txn).ok());
  ASSERT_TRUE(monitor.Poll().ok());
  EXPECT_EQ(monitor.poll_stats().undecided_verdicts, undecided_before + 1);
}

TEST(MonitorBudgetTest, CallerBudgetOverridesMonitorDefault) {
  BlockchainDatabase db = MakeConflictLadder(3);
  MonitorOptions options;
  options.budget.max_worlds = 1;  // Monitor default: hopeless.
  ConstraintMonitor monitor(&db, options);
  auto handle = monitor.Add("count", Q("[q(count()) :- R(x, y)] = 99"));
  ASSERT_TRUE(handle.ok());

  // The per-poll options win over the monitor-level default.
  DcSatOptions roomy;
  roomy.budget.max_worlds = 1000;
  ASSERT_TRUE(monitor.Poll(roomy).ok());
  EXPECT_EQ(monitor.verdict(*handle), Verdict::kImpossible);
  EXPECT_EQ(monitor.poll_stats().undecided_verdicts, 0u);
}

}  // namespace
}  // namespace bcdb
