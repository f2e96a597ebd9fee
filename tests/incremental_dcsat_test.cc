#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/dcsat.h"
#include "core/monitor.h"
#include "query/parser.h"
#include "util/rng.h"

namespace bcdb {
namespace {

using Verdict = ConstraintMonitor::Verdict;

/// Differential testing of the incremental steady-state maintenance: a
/// long-lived engine/monitor that patches its fd graph, Θ_I components and
/// validity bits from the mutation-delta log must be *bit-identical* — same
/// graph, same verdicts, same witnesses, same clique counts — to a
/// from-scratch build at every step of a randomized
/// AddPending/ApplyPending/DiscardPending/Poll interleaving.

Catalog MakeCatalog() {
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
  return catalog;
}

BlockchainDatabase MakeInstance(Xoshiro256& rng, bool with_ind) {
  Catalog catalog = MakeCatalog();
  ConstraintSet constraints;
  auto key = FunctionalDependency::Key(catalog, "R", {"a"});
  EXPECT_TRUE(key.ok());
  constraints.AddFd(std::move(*key));
  if (with_ind) {
    auto ind = InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"});
    EXPECT_TRUE(ind.ok());
    constraints.AddInd(std::move(*ind));
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
  EXPECT_TRUE(db->ValidateCurrentState().ok());
  return std::move(*db);
}

/// Small domains force frequent FD collisions (cascades on apply) and
/// shared Θ-buckets (non-trivial component structure).
Transaction RandomTxn(Xoshiro256& rng, std::size_t ordinal) {
  Transaction txn("P" + std::to_string(ordinal));
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
  return txn;
}

const char* kEngineQueries[] = {
    "q() :- R(x, y)",
    "q() :- R(0, y)",
    "q() :- R(x, y), S(x, z)",
    "q() :- R(x, 1), S(x, 2)",
    "q() :- R(x, y), S(x, z), y < z",
    "[q(sum(y)) :- S(x, y)] >= 4",
};

const char* kMonitorQueries[] = {
    "q() :- R(x, y)",
    "q() :- R(x, 2)",
    "q() :- R(x, y), S(x, z)",
    "q() :- S(3, y)",
};

/// The maintained steady-state structures vs a from-scratch build: same
/// validity bits, same adjacency, same conflict count, and — for every
/// query under two option sets — the same full result.
void ExpectEngineEquivalence(DcSatEngine& incremental, BlockchainDatabase& db,
                             const std::string& context) {
  DcSatEngine scratch(&db);  // Built from scratch on first use.
  const FdGraph& inc_graph = incremental.PrepareSteadyState();
  const FdGraph& scr_graph = scratch.PrepareSteadyState();

  ASSERT_EQ(inc_graph.valid_nodes(), scr_graph.valid_nodes()) << context;
  ASSERT_EQ(inc_graph.num_conflict_pairs(), scr_graph.num_conflict_pairs())
      << context;
  ASSERT_EQ(inc_graph.conflict_lists().size(),
            scr_graph.conflict_lists().size())
      << context;
  for (std::size_t v = 0; v < inc_graph.conflict_lists().size(); ++v) {
    ASSERT_EQ(inc_graph.conflicts(v), scr_graph.conflicts(v))
        << context << " vertex " << v;
  }

  DcSatOptions default_options;
  DcSatOptions search_options;  // Force the clique search everywhere.
  search_options.use_precheck = false;
  search_options.use_covers = false;
  for (const char* text : kEngineQueries) {
    auto q = ParseDenialConstraint(text);
    ASSERT_TRUE(q.ok()) << text;
    // Requested explicitly, the general search kAuto resolves to never
    // tries a tractable fragment.
    search_options.algorithm = GeneralSearchAlgorithm(
        *q, AnalyzeQuery(*q, incremental.db().catalog()));
    for (const DcSatOptions& options : {default_options, search_options}) {
      auto inc = incremental.Check(*q, options);
      auto scr = scratch.Check(*q, options);
      ASSERT_TRUE(inc.ok()) << context << " " << text;
      ASSERT_TRUE(scr.ok()) << context << " " << text;
      ASSERT_EQ(inc->satisfied, scr->satisfied) << context << " " << text;
      ASSERT_EQ(inc->witness, scr->witness) << context << " " << text;
      ASSERT_EQ(inc->stats.algorithm_used, scr->stats.algorithm_used)
          << context << " " << text;
      ASSERT_EQ(inc->stats.precheck_decided, scr->stats.precheck_decided)
          << context << " " << text;
      ASSERT_EQ(inc->stats.num_valid_nodes, scr->stats.num_valid_nodes)
          << context << " " << text;
      ASSERT_EQ(inc->stats.fd_conflict_pairs, scr->stats.fd_conflict_pairs)
          << context << " " << text;
      ASSERT_EQ(inc->stats.num_components, scr->stats.num_components)
          << context << " " << text;
      ASSERT_EQ(inc->stats.num_components_covered,
                scr->stats.num_components_covered)
          << context << " " << text;
      ASSERT_EQ(inc->stats.num_cliques, scr->stats.num_cliques)
          << context << " " << text;
      ASSERT_EQ(inc->stats.num_worlds_evaluated,
                scr->stats.num_worlds_evaluated)
          << context << " " << text;
    }
  }
}

/// The long-lived monitor (dirty-skipping, incremental engine) vs a fresh
/// monitor that evaluates everything from scratch.
void ExpectMonitorEquivalence(ConstraintMonitor& monitor,
                              const std::vector<MonitorHandle>& handles,
                              BlockchainDatabase& db,
                              const std::string& context) {
  ASSERT_TRUE(monitor.Poll().ok()) << context;
  ConstraintMonitor fresh(&db);  // First poll evaluates every member.
  std::vector<MonitorHandle> fresh_handles;
  for (const char* text : kMonitorQueries) {
    auto handle = fresh.Add(text, text);
    ASSERT_TRUE(handle.ok()) << context << " " << text;
    fresh_handles.push_back(*handle);
  }
  ASSERT_TRUE(fresh.Poll().ok()) << context;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_EQ(monitor.verdict(handles[i]), fresh.verdict(fresh_handles[i]))
        << context << " " << kMonitorQueries[i];
  }
}

class IncrementalDcSatTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalDcSatTest, RandomMutationSequenceMatchesScratch) {
  for (bool with_ind : {false, true}) {
    Xoshiro256 rng(GetParam() * 2 + (with_ind ? 1 : 0));
    BlockchainDatabase db = MakeInstance(rng, with_ind);
    DcSatEngine engine(&db);  // Incremental maintenance on by default.
    ConstraintMonitor monitor(&db);
    std::vector<MonitorHandle> handles;
    for (const char* text : kMonitorQueries) {
      auto handle = monitor.Add(text, text);
      ASSERT_TRUE(handle.ok()) << text;
      handles.push_back(*handle);
    }

    // A few transactions before the engines first build, a dozen randomized
    // mutations after, differentially checked at every step.
    std::size_t next_ordinal = 0;
    std::vector<PendingId> live;
    const std::size_t initial = 2 + rng.NextBelow(3);
    for (std::size_t i = 0; i < initial; ++i) {
      auto id = db.AddPending(RandomTxn(rng, next_ordinal++));
      ASSERT_TRUE(id.ok());
      live.push_back(*id);
    }
    ExpectEngineEquivalence(engine, db, "initial");
    ExpectMonitorEquivalence(monitor, handles, db, "initial");

    for (int step = 0; step < 12; ++step) {
      const std::string context = "seed " + std::to_string(GetParam()) +
                                  " ind " + std::to_string(with_ind) +
                                  " step " + std::to_string(step);
      const std::size_t op = rng.NextBelow(3);
      if (op == 0 || live.empty()) {
        auto id = db.AddPending(RandomTxn(rng, next_ordinal++));
        ASSERT_TRUE(id.ok()) << context;
        live.push_back(*id);
      } else {
        const std::size_t pick = rng.NextBelow(live.size());
        const PendingId id = live[pick];
        if (op == 1 && db.ApplyPending(id).ok()) {
          // Applied (with possible cascade invalidations among survivors).
        } else {
          // Base-inconsistent transactions cannot apply; evict instead —
          // every step mutates, so every step exercises a delta batch.
          ASSERT_TRUE(db.DiscardPending(id).ok()) << context;
        }
        live.erase(live.begin() + pick);
      }
      ExpectEngineEquivalence(engine, db, context);
      ExpectMonitorEquivalence(monitor, handles, db, context);
    }

    // The long-lived consumers really took the delta path (one full build,
    // then incremental batches).
    EXPECT_GT(engine.steady_state_stats().incremental_batches, 0u);
    EXPECT_GT(monitor.engine().steady_state_stats().incremental_batches, 0u);
    EXPECT_EQ(engine.steady_state_stats().full_rebuilds, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDcSatTest,
                         ::testing::Range<std::uint64_t>(0, 60));

class IncrementalBatchedDcSatTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalBatchedDcSatTest, BatchedMutationSequenceMatchesScratch) {
  // The same differential as above, but the consumers refresh only every K
  // mutations, so every delta batch carries multiple events — the
  // production shape (max_delta_events = 256), including an AddPending and
  // ApplyPending of one transaction inside a single batch, which must take
  // the applied-in-batch fallback rather than an unsound patch.
  for (bool with_ind : {false, true}) {
    Xoshiro256 rng(GetParam() * 2 + (with_ind ? 1 : 0));
    const std::size_t refresh_every = 2 + GetParam() % 4;  // K in [2, 5].
    BlockchainDatabase db = MakeInstance(rng, with_ind);
    DcSatEngine engine(&db);
    ConstraintMonitor monitor(&db);
    std::vector<MonitorHandle> handles;
    for (const char* text : kMonitorQueries) {
      auto handle = monitor.Add(text, text);
      ASSERT_TRUE(handle.ok()) << text;
      handles.push_back(*handle);
    }

    std::size_t next_ordinal = 0;
    std::vector<PendingId> live;
    const std::size_t initial = 2 + rng.NextBelow(3);
    for (std::size_t i = 0; i < initial; ++i) {
      auto id = db.AddPending(RandomTxn(rng, next_ordinal++));
      ASSERT_TRUE(id.ok());
      live.push_back(*id);
    }
    ExpectEngineEquivalence(engine, db, "initial");
    ExpectMonitorEquivalence(monitor, handles, db, "initial");

    for (std::size_t step = 0; step < 20; ++step) {
      const std::string context = "seed " + std::to_string(GetParam()) +
                                  " ind " + std::to_string(with_ind) +
                                  " K " + std::to_string(refresh_every) +
                                  " step " + std::to_string(step);
      const std::size_t op = rng.NextBelow(3);
      if (op == 0 || live.empty()) {
        auto id = db.AddPending(RandomTxn(rng, next_ordinal++));
        ASSERT_TRUE(id.ok()) << context;
        live.push_back(*id);
      } else {
        const std::size_t pick = rng.NextBelow(live.size());
        const PendingId id = live[pick];
        if (op == 1 && db.ApplyPending(id).ok()) {
          // Applied; when `id` entered in this same unchecked window, the
          // next refresh sees add+apply in one batch.
        } else {
          ASSERT_TRUE(db.DiscardPending(id).ok()) << context;
        }
        live.erase(live.begin() + pick);
      }
      if ((step + 1) % refresh_every == 0) {
        ExpectEngineEquivalence(engine, db, context);
        ExpectMonitorEquivalence(monitor, handles, db, context);
      }
    }
    ExpectEngineEquivalence(engine, db, "final");
    ExpectMonitorEquivalence(monitor, handles, db, "final");

    // Every refresh after the first build consumed a multi-event batch:
    // either patched incrementally or rejected by the applied-in-batch
    // guard — never by size or a trimmed log.
    const SteadyStateStats& stats = engine.steady_state_stats();
    EXPECT_GE(stats.incremental_batches + stats.fallbacks_applied_in_batch,
              20 / refresh_every)
        << "ind " << with_ind;
    EXPECT_EQ(stats.fallbacks_batch_too_large, 0u);
    EXPECT_EQ(stats.fallbacks_missed_events, 0u);
    EXPECT_EQ(stats.fallbacks_base_insert, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalBatchedDcSatTest,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(IncrementalFallbackTest, OversizedBatchFallsBackToFullRebuild) {
  Xoshiro256 rng(7);
  BlockchainDatabase db = MakeInstance(rng, true);
  DcSatEngine engine(&db);
  engine.PrepareSteadyState();

  for (std::size_t i = 0; i < DcSatEngine::kMaxDeltaEvents + 1; ++i) {
    ASSERT_TRUE(db.AddPending(RandomTxn(rng, i)).ok());
  }
  engine.PrepareSteadyState();
  EXPECT_EQ(engine.steady_state_stats().fallbacks_batch_too_large, 1u);
  EXPECT_EQ(engine.steady_state_stats().full_rebuilds, 2u);
  EXPECT_TRUE(engine.last_refresh().full_rebuild);
  ExpectEngineEquivalence(engine, db, "oversized batch");

  // A single follow-up mutation fits the budget again.
  ASSERT_TRUE(
      db.AddPending(RandomTxn(rng, DcSatEngine::kMaxDeltaEvents + 1)).ok());
  engine.PrepareSteadyState();
  EXPECT_EQ(engine.steady_state_stats().incremental_batches, 1u);
  EXPECT_FALSE(engine.last_refresh().full_rebuild);
  ExpectEngineEquivalence(engine, db, "follow-up delta");
}

TEST(IncrementalFallbackTest, BaseInsertHandledIncrementally) {
  // Base-state events published through the public API carry their tuple
  // payload, so the engine patches determinant buckets in place instead of
  // rebuilding.
  Xoshiro256 rng(8);
  BlockchainDatabase db = MakeInstance(rng, false);
  DcSatEngine engine(&db);
  engine.PrepareSteadyState();

  ASSERT_TRUE(
      db.InsertCurrent("R", Tuple({Value::Int(17), Value::Int(1)})).ok());
  engine.PrepareSteadyState();
  EXPECT_EQ(engine.steady_state_stats().fallbacks_base_insert, 0u);
  EXPECT_FALSE(engine.last_refresh().full_rebuild);
  ExpectEngineEquivalence(engine, db, "base insert");

  ASSERT_TRUE(
      db.RemoveCurrent("R", Tuple({Value::Int(17), Value::Int(1)})).ok());
  engine.PrepareSteadyState();
  EXPECT_EQ(engine.steady_state_stats().fallbacks_base_insert, 0u);
  EXPECT_FALSE(engine.last_refresh().full_rebuild);
  ExpectEngineEquivalence(engine, db, "base remove");
}

TEST(IncrementalFallbackTest, TrimmedLogFallsBackToFullRebuild) {
  Xoshiro256 rng(9);
  BlockchainDatabase db = MakeInstance(rng, false);
  DcSatEngine engine(&db);
  engine.PrepareSteadyState();

  // Blow past the mutation log's retention window; the engine's cursor is
  // trimmed out and the delta path must refuse to patch (the trimmed log is
  // detected before the batch size is).
  for (std::size_t i = 0; i < MutationLog::kDefaultCapacity + 8; ++i) {
    Transaction txn("Bulk" + std::to_string(i));
    txn.Add("S", Tuple({Value::Int(static_cast<std::int64_t>(i)),
                        Value::Int(1)}));
    ASSERT_TRUE(db.AddPending(txn).ok());
  }
  engine.PrepareSteadyState();
  EXPECT_EQ(engine.steady_state_stats().fallbacks_missed_events, 1u);
  EXPECT_EQ(engine.steady_state_stats().fallbacks_batch_too_large, 0u);
  EXPECT_TRUE(engine.last_refresh().full_rebuild);
}

TEST(IncrementalMonitorTest, TrimmedLogBetweenPollsDirtiesEveryClass) {
  // More mutations between two polls than the log retains: the monitor's
  // cursor is trimmed out, so it cannot tell which relations changed and
  // must re-evaluate every member — including those over R, which this
  // S-only churn never touches but whose verdicts a skip would keep.
  for (bool with_ind : {false, true}) {
    Xoshiro256 rng(17 + (with_ind ? 1 : 0));
    BlockchainDatabase db = MakeInstance(rng, with_ind);
    ConstraintMonitor monitor(&db);
    std::vector<MonitorHandle> handles;
    for (const char* text : kMonitorQueries) {
      auto handle = monitor.Add(text, text);
      ASSERT_TRUE(handle.ok()) << text;
      handles.push_back(*handle);
    }
    ASSERT_TRUE(db.AddPending(RandomTxn(rng, 0)).ok());
    ExpectMonitorEquivalence(monitor, handles, db, "before the bulk");

    for (std::size_t i = 0; i < MutationLog::kDefaultCapacity + 8; ++i) {
      Transaction txn("Bulk" + std::to_string(i));
      txn.Add("S", Tuple({Value::Int(static_cast<std::int64_t>(i % 7)),
                          Value::Int(static_cast<std::int64_t>(i % 3))}));
      auto id = db.AddPending(txn);
      ASSERT_TRUE(id.ok());
      if (i % 2 == 1) {
        ASSERT_TRUE(db.DiscardPending(*id).ok());
      }
    }
    const std::size_t skipped_before =
        monitor.poll_stats().constraints_skipped;
    ExpectMonitorEquivalence(monitor, handles, db,
                             "after the bulk, ind " + std::to_string(with_ind));
    EXPECT_EQ(monitor.poll_stats().constraints_skipped, skipped_before);
    EXPECT_EQ(monitor.engine().steady_state_stats().fallbacks_missed_events,
              1u);
  }
}

TEST(IncrementalFallbackTest, SameBatchAddApplyFallsBackToFullRebuild) {
  // Regression: AddPending(j) and ApplyPending(j) inside one delta batch.
  // The replayed AddPendingNode(j) sees IsPending(j) == false and never
  // integrates j, so the kPendingApplied replay would compute an empty
  // cascade and leave j's still-pending FD-conflictors marked valid —
  // where a from-scratch build invalidates them. The engine must detect
  // the add+apply pair and rebuild.
  Xoshiro256 rng(13);
  BlockchainDatabase db = MakeInstance(rng, true);
  DcSatEngine engine(&db);

  Transaction bystander("bystander");
  bystander.Add("R", Tuple({Value::Int(40), Value::Int(2)}));
  auto bystander_id = db.AddPending(bystander);
  ASSERT_TRUE(bystander_id.ok());
  engine.PrepareSteadyState();  // Build once; the next batch is add+apply.

  Transaction winner("winner");
  winner.Add("R", Tuple({Value::Int(40), Value::Int(1)}));
  auto winner_id = db.AddPending(winner);
  ASSERT_TRUE(winner_id.ok());
  ASSERT_TRUE(db.ApplyPending(*winner_id).ok());

  const FdGraph& graph = engine.PrepareSteadyState();
  EXPECT_EQ(engine.steady_state_stats().fallbacks_applied_in_batch, 1u);
  EXPECT_TRUE(engine.last_refresh().full_rebuild);
  // The bystander now FD-conflicts with the applied tuple in the base.
  EXPECT_FALSE(graph.valid_nodes().Test(*bystander_id));
  ExpectEngineEquivalence(engine, db, "same-batch add+apply");
}

TEST(IncrementalCascadeTest, ApplyInvalidatesConflictorsAndTheirComponents) {
  // Deterministic cascade: two pending transactions claim the same R-key
  // with different payloads; applying one must invalidate the other in the
  // maintained structures exactly as a rebuild would.
  Xoshiro256 rng(11);
  BlockchainDatabase db = MakeInstance(rng, true);
  DcSatEngine engine(&db);

  Transaction winner("winner");
  winner.Add("R", Tuple({Value::Int(40), Value::Int(1)}));
  Transaction loser("loser");
  loser.Add("R", Tuple({Value::Int(40), Value::Int(2)}));
  loser.Add("S", Tuple({Value::Int(40), Value::Int(3)}));
  auto winner_id = db.AddPending(winner);
  auto loser_id = db.AddPending(loser);
  ASSERT_TRUE(winner_id.ok());
  ASSERT_TRUE(loser_id.ok());

  const FdGraph& before = engine.PrepareSteadyState();
  EXPECT_TRUE(before.valid_nodes().Test(*loser_id));
  EXPECT_EQ(before.num_conflict_pairs(), 1u);

  ASSERT_TRUE(db.ApplyPending(*winner_id).ok());
  const FdGraph& after = engine.PrepareSteadyState();
  EXPECT_FALSE(engine.last_refresh().full_rebuild);
  EXPECT_EQ(engine.last_refresh().cascade_invalidated,
            std::vector<PendingId>{*loser_id});
  EXPECT_FALSE(after.valid_nodes().Test(*loser_id));
  EXPECT_EQ(after.num_conflict_pairs(), 0u);
  ExpectEngineEquivalence(engine, db, "cascade");
}

}  // namespace
}  // namespace bcdb
