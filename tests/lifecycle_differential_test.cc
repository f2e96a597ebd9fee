#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/dcsat.h"
#include "core/monitor.h"
#include "query/parser.h"
#include "util/rng.h"

namespace bcdb {
namespace {

/// Differential testing of the *full-lifecycle* mutation model: randomized
/// interleavings of every mutation the database publishes — base inserts
/// (block confirmation), base retractions (reorged-away coinbases),
/// pending adds (mempool arrival), applies (confirmation), discards
/// (eviction / replace-by-fee), and restores (a reorg returning a confirmed
/// transaction to the mempool) — while a long-lived engine and monitor
/// patch their steady-state caches from the mutation-delta log. At every
/// step they must be bit-identical to a from-scratch build: same validity
/// bits, same adjacency, same conflict counts, same verdicts and witnesses.

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

/// Small domains force frequent FD collisions — base inserts that
/// invalidate pending transactions, base retractions that revalidate them.
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

void ExpectEngineEquivalence(DcSatEngine& incremental, BlockchainDatabase& db,
                             const std::string& context) {
  DcSatEngine scratch(&db);  // Built from scratch on first use.
  const FdGraph& inc_graph = incremental.PrepareSteadyState();
  const FdGraph& scr_graph = scratch.PrepareSteadyState();

  ASSERT_EQ(inc_graph.valid_nodes(), scr_graph.valid_nodes()) << context;
  ASSERT_EQ(inc_graph.conflict_lists().size(),
            scr_graph.conflict_lists().size())
      << context;
  for (std::size_t v = 0; v < inc_graph.conflict_lists().size(); ++v) {
    ASSERT_EQ(inc_graph.conflicts(v), scr_graph.conflicts(v))
        << context << " vertex " << v;
  }
  ASSERT_EQ(inc_graph.num_conflict_pairs(), scr_graph.num_conflict_pairs())
      << context;

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
      ASSERT_EQ(inc->stats.num_valid_nodes, scr->stats.num_valid_nodes)
          << context << " " << text;
      ASSERT_EQ(inc->stats.fd_conflict_pairs, scr->stats.fd_conflict_pairs)
          << context << " " << text;
      ASSERT_EQ(inc->stats.num_components, scr->stats.num_components)
          << context << " " << text;
      ASSERT_EQ(inc->stats.num_cliques, scr->stats.num_cliques)
          << context << " " << text;
      ASSERT_EQ(inc->stats.num_worlds_evaluated,
                scr->stats.num_worlds_evaluated)
          << context << " " << text;
    }
  }
}

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

/// Shared driver: runs `steps` random lifecycle mutations, differentially
/// checking after every `refresh_every` of them (1 = per-step).
void RunLifecycleDifferential(std::uint64_t seed, bool with_ind,
                              std::size_t steps, std::size_t refresh_every) {
  Xoshiro256 rng(seed * 2 + (with_ind ? 1 : 0));
  BlockchainDatabase db = MakeInstance(rng, with_ind);
  DcSatEngine engine(&db);  // Incremental maintenance on by default.
  ConstraintMonitor monitor(&db);
  std::vector<MonitorHandle> handles;
  for (const char* text : kMonitorQueries) {
    auto handle = monitor.Add(text, text);
    ASSERT_TRUE(handle.ok()) << text;
    handles.push_back(*handle);
  }

  std::size_t next_ordinal = 0;
  std::vector<PendingId> live;
  std::vector<PendingId> applied;
  /// Base tuples this driver inserted (eligible for RemoveCurrent).
  std::vector<std::pair<std::string, Tuple>> base;
  const std::size_t initial = 2 + rng.NextBelow(3);
  for (std::size_t i = 0; i < initial; ++i) {
    auto id = db.AddPending(RandomTxn(rng, next_ordinal++));
    ASSERT_TRUE(id.ok());
    live.push_back(*id);
  }
  ExpectEngineEquivalence(engine, db, "initial");
  ExpectMonitorEquivalence(monitor, handles, db, "initial");

  for (std::size_t step = 0; step < steps; ++step) {
    const std::string context = "seed " + std::to_string(seed) + " ind " +
                                std::to_string(with_ind) + " K " +
                                std::to_string(refresh_every) + " step " +
                                std::to_string(step);
    const bool trace =  // NOLINT(concurrency-mt-unsafe): read-only, no setenv anywhere
        std::getenv("BCDB_LIFECYCLE_TRACE") != nullptr;
    const std::size_t op = rng.NextBelow(8);
    switch (op) {
      case 0:
      case 1: {  // Block confirmation brings a fresh base tuple.
        const std::string relation = rng.NextBool(0.7) ? "R" : "S";
        const Tuple tuple({Value::Int(rng.NextInRange(0, 5)),
                           Value::Int(rng.NextInRange(0, 3))});
        if (db.InsertCurrent(relation, tuple).ok()) {
          // Set semantics: a duplicate insert is a no-op, so track each base
          // tuple once — a second entry would outlive the single removal.
          if (std::find(base.begin(), base.end(),
                        std::make_pair(relation, tuple)) == base.end()) {
            base.emplace_back(relation, tuple);
          }
          if (trace)
            fprintf(stderr, "%s: insert %s %s\n", context.c_str(),
                    relation.c_str(), tuple.ToString().c_str());
        }
        break;
      }
      case 2: {  // A reorg drops a previously confirmed base tuple.
        if (base.empty()) break;
        const std::size_t pick = rng.NextBelow(base.size());
        // NotFound is possible when the entry went stale: an UnapplyPending
        // can demote base ownership of a tuple this driver also inserted.
        const Status removed =
            db.RemoveCurrent(base[pick].first, base[pick].second);
        ASSERT_TRUE(removed.ok() || removed.code() == StatusCode::kNotFound)
            << context << ": " << removed.ToString();
        if (trace && removed.ok())
          fprintf(stderr, "%s: remove %s %s\n", context.c_str(),
                  base[pick].first.c_str(), base[pick].second.ToString().c_str());
        base.erase(base.begin() + pick);
        break;
      }
      case 3: {  // A reorg returns an applied transaction to the mempool.
        if (applied.empty()) break;
        const std::size_t pick = rng.NextBelow(applied.size());
        const PendingId id = applied[pick];
        ASSERT_TRUE(db.UnapplyPending(id).ok()) << context;
        applied.erase(applied.begin() + pick);
        live.push_back(id);
        if (trace) fprintf(stderr, "%s: unapply %zu\n", context.c_str(), id);
        break;
      }
      case 4:
      case 5: {  // Mempool arrival.
        auto id = db.AddPending(RandomTxn(rng, next_ordinal++));
        ASSERT_TRUE(id.ok()) << context;
        live.push_back(*id);
        if (trace) fprintf(stderr, "%s: add %zu\n", context.c_str(), *id);
        break;
      }
      default: {  // Confirmation or eviction of a live transaction.
        if (live.empty()) break;
        const std::size_t pick = rng.NextBelow(live.size());
        const PendingId id = live[pick];
        if (op == 6 && db.ApplyPending(id).ok()) {
          applied.push_back(id);
          if (trace) fprintf(stderr, "%s: apply %zu\n", context.c_str(), id);
        } else {
          // Base-inconsistent transactions cannot apply; evict instead.
          ASSERT_TRUE(db.DiscardPending(id).ok()) << context;
          if (trace) fprintf(stderr, "%s: discard %zu\n", context.c_str(), id);
        }
        live.erase(live.begin() + pick);
        break;
      }
    }
    if ((step + 1) % refresh_every == 0) {
      ExpectEngineEquivalence(engine, db, context);
      ExpectMonitorEquivalence(monitor, handles, db, context);
    }
  }
  ExpectEngineEquivalence(engine, db, "final");
  ExpectMonitorEquivalence(monitor, handles, db, "final");

  // The long-lived consumers really rode the delta path: base-state events
  // carried their payloads, so only the add/restore+apply guard may have
  // forced a rebuild.
  const SteadyStateStats& stats = engine.steady_state_stats();
  EXPECT_GT(stats.incremental_batches, 0u);
  EXPECT_EQ(stats.fallbacks_base_insert, 0u);
  EXPECT_EQ(stats.fallbacks_batch_too_large, 0u);
  EXPECT_EQ(stats.fallbacks_missed_events, 0u);
  if (refresh_every == 1) {
    // Per-step refreshes can never see an add and an apply of the same
    // transaction in one batch.
    EXPECT_EQ(stats.fallbacks_applied_in_batch, 0u);
    EXPECT_EQ(stats.full_rebuilds, 1u);
  }
}

class LifecycleDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LifecycleDifferentialTest, PerStepMatchesScratch) {
  for (bool with_ind : {false, true}) {
    RunLifecycleDifferential(GetParam(), with_ind, /*steps=*/16,
                             /*refresh_every=*/1);
  }
}

TEST_P(LifecycleDifferentialTest, BatchedMatchesScratch) {
  // Multi-event delta batches (the production shape): reorg-style windows
  // where a restore, an apply and base churn land in one refresh — including
  // the restore-then-apply-in-one-batch pattern that must take the
  // applied-in-batch rebuild guard rather than an unsound patch.
  for (bool with_ind : {false, true}) {
    RunLifecycleDifferential(GetParam(), with_ind, /*steps=*/24,
                             /*refresh_every=*/2 + GetParam() % 4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LifecycleDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(LifecycleEdgeTest, RestoreThenApplyInOneBatchFallsBack) {
  // [UnapplyPending(A), ApplyPending(A)] inside one delta batch: the replay
  // would integrate A via AddPendingNode, but the apply's cascade is
  // computed against A's edges *as replayed*, which can differ from the
  // from-scratch view. The engine must detect the pair and rebuild.
  Xoshiro256 rng(21);
  BlockchainDatabase db = MakeInstance(rng, false);
  Transaction txn("A");
  txn.Add("R", Tuple({Value::Int(9), Value::Int(1)}));
  auto id = db.AddPending(txn);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db.ApplyPending(*id).ok());

  DcSatEngine engine(&db);
  engine.PrepareSteadyState();

  ASSERT_TRUE(db.UnapplyPending(*id).ok());
  ASSERT_TRUE(db.ApplyPending(*id).ok());
  engine.PrepareSteadyState();
  EXPECT_EQ(engine.steady_state_stats().fallbacks_applied_in_batch, 1u);
  EXPECT_TRUE(engine.last_refresh().full_rebuild);
  ExpectEngineEquivalence(engine, db, "restore+apply batch");
}

TEST(LifecycleEdgeTest, RestoreRevalidatesFormerCascadeVictims) {
  // Base tuple R(4, 0) invalidates pending B = R(4, 1) via the key FD.
  // Retracting it must revalidate B incrementally — and the revalidation
  // must re-probe against the *final* base state, not merely undo the edge.
  Xoshiro256 rng(22);
  BlockchainDatabase db = MakeInstance(rng, false);
  DcSatEngine engine(&db);
  engine.PrepareSteadyState();

  Transaction txn_b("B");
  txn_b.Add("R", Tuple({Value::Int(4), Value::Int(1)}));
  auto b = db.AddPending(txn_b);
  ASSERT_TRUE(b.ok());
  engine.PrepareSteadyState();

  const Tuple blocker({Value::Int(4), Value::Int(0)});
  ASSERT_TRUE(db.InsertCurrent("R", blocker).ok());
  engine.PrepareSteadyState();
  EXPECT_FALSE(engine.last_refresh().full_rebuild);
  EXPECT_FALSE(engine.PrepareSteadyState().valid_nodes().Test(*b));
  ExpectEngineEquivalence(engine, db, "blocked");

  ASSERT_TRUE(db.RemoveCurrent("R", blocker).ok());
  engine.PrepareSteadyState();
  EXPECT_FALSE(engine.last_refresh().full_rebuild);
  EXPECT_TRUE(engine.PrepareSteadyState().valid_nodes().Test(*b));
  ExpectEngineEquivalence(engine, db, "unblocked");
}

TEST(LifecycleEdgeTest, UnapplyRestoresPendingStateAndVisibility) {
  Xoshiro256 rng(23);
  BlockchainDatabase db = MakeInstance(rng, false);
  Transaction txn("A");
  txn.Add("R", Tuple({Value::Int(5), Value::Int(2)}));
  auto id = db.AddPending(txn);
  ASSERT_TRUE(id.ok());

  ASSERT_EQ(db.UnapplyPending(*id).code(), StatusCode::kInvalidArgument)
      << "unapply of a never-applied transaction must fail";
  ASSERT_TRUE(db.ApplyPending(*id).ok());
  ASSERT_TRUE(db.UnapplyPending(*id).ok());
  EXPECT_TRUE(db.IsPending(*id));
  // Back to pending: applying again must succeed (round trip).
  ASSERT_TRUE(db.ApplyPending(*id).ok());
  ASSERT_EQ(db.UnapplyPending(*id).ok(), true);
  ASSERT_EQ(db.UnapplyPending(*id).code(), StatusCode::kInvalidArgument)
      << "double unapply must fail";
}

}  // namespace
}  // namespace bcdb
