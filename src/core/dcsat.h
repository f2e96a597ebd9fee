#ifndef BCDB_CORE_DCSAT_H_
#define BCDB_CORE_DCSAT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "core/blockchain_db.h"
#include "core/fd_graph.h"
#include "core/get_maximal.h"
#include "core/ind_graph.h"
#include "query/ast.h"
#include "query/compiled_query.h"
#include "util/deadline.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace bcdb {

/// Which search procedure decides D |= ¬q.
enum class DcSatAlgorithm {
  /// Pick automatically from the constraint's static class: kStatic for a
  /// provably unsatisfiable body, kTractable for the Theorem-1 fragments,
  /// otherwise GeneralSearchAlgorithm (Opt, Naive or exhaustive).
  kAuto,
  /// Paper Figure 4: maximal cliques of G^fd_T over all pending
  /// transactions. Requires a monotone constraint.
  kNaive,
  /// Paper Figure 5: split pending transactions into the connected
  /// components of G^{q,ind}_T, filter by constant coverage, then run the
  /// clique search per component. Requires a monotone, connected,
  /// non-aggregate constraint.
  kOpt,
  /// Exact enumeration of Poss(D) — exponential; correct for arbitrary
  /// (including non-monotone) constraints.
  kExhaustive,
  /// One of the Theorem-1 polynomial fragments engaged (FD-only support
  /// check or IND-only unique-maximal-world check); only ever *selected*
  /// automatically, never requested. See core/tractable.h.
  kTractable,
  /// The static classification decided the check without touching any
  /// data: the constraint is provably unsatisfiable in every world
  /// (kTriviallyUnsat), so D |= ¬q holds vacuously. Only ever selected
  /// automatically, never requested.
  kStatic,
};

const char* DcSatAlgorithmToString(DcSatAlgorithm algorithm);

/// The general search kAuto falls back to when neither the static class nor
/// a Theorem-1 fragment decides the check: OptDCSat for connected monotone
/// conjunctive constraints, NaiveDCSat for other monotone constraints,
/// exhaustive possible-world search otherwise. `analysis` must be
/// AnalyzeQuery(q, ...) (CompiledQuery::analysis() carries it).
DcSatAlgorithm GeneralSearchAlgorithm(const DenialConstraint& q,
                                      const QueryAnalysis& analysis);

struct DcSatOptions {
  /// kAuto routes on the constraint's static class (see DcSatEngine::Check);
  /// an explicit kNaive/kOpt/kExhaustive runs that general search directly.
  DcSatAlgorithm algorithm = DcSatAlgorithm::kAuto;
  /// Evaluate q over R ∪ T first; if false there, monotonicity makes the
  /// whole search unnecessary (paper Section 6.3, final optimization).
  bool use_precheck = true;
  /// OptDCSat only: skip components that cannot cover q's constants.
  bool use_covers = true;
  /// Tomita pivoting inside Bron–Kerbosch.
  bool use_pivot = true;
  /// ConstraintMonitor::Poll only: the fan-out width of its probes and
  /// per-constraint searches. 0 = hardware concurrency; 1 = serial, on the
  /// caller's thread. Check and CheckPrepared ignore it: one check scans its
  /// components serially, in index order, on the caller's thread.
  std::size_t num_threads = 1;
  /// Time/work ceiling for this check (DCSat is CoNP-complete for
  /// {key, ind} constraint sets — paper Theorem 1 — so adversarial mempool
  /// shapes can make any exact check blow up). Default-constructed limits
  /// impose nothing and the check is bit-identical to an unbudgeted one;
  /// with limits set, an expiring check returns `DcSatResult::decided ==
  /// false` (with partial stats) instead of stalling or erroring. A
  /// violating world found before expiry still yields a decided unsat
  /// result — one counterexample is conclusive regardless of budget — but
  /// its witness need not be the canonical lowest-component one.
  BudgetLimits budget;
};

/// Cumulative refresh behaviour; how often the delta path engaged and why
/// it ever fell back to full rebuilds.
struct SteadyStateStats {
  std::size_t full_rebuilds = 0;
  std::size_t incremental_batches = 0;
  std::size_t incremental_events = 0;  // Mutation events applied as deltas.
  std::size_t fallbacks_batch_too_large = 0;  // > kMaxDeltaEvents pending.
  std::size_t fallbacks_missed_events = 0;    // Mutation log trimmed past us.
  /// A base-state event (kCurrentInserted / kCurrentRemoved) arrived without
  /// its tuple payload, so the determinant-bucket probes cannot run. The
  /// public mutation API always attaches the payload — base churn is handled
  /// incrementally — so this counts only hand-built event streams.
  std::size_t fallbacks_base_insert = 0;
  /// One batch both integrated (added or restored) and applied a
  /// transaction; replay cannot reconstruct its cascade (see
  /// TryIncrementalRefresh).
  std::size_t fallbacks_applied_in_batch = 0;
};

/// What the most recent RefreshCaches (triggered by Check /
/// PrepareSteadyState) actually did.
struct SteadyStateRefresh {
  bool refreshed = false;     // false: caches were already fresh.
  bool full_rebuild = false;  // Meaningful only when refreshed.
  std::size_t events_applied = 0;
  /// Still-pending transactions invalidated because they FD-conflicted with
  /// a transaction the delta batch applied, or with a tuple it inserted
  /// directly into the current state.
  std::vector<PendingId> cascade_invalidated;
};

struct DcSatStats {
  DcSatAlgorithm algorithm_used = DcSatAlgorithm::kAuto;
  bool precheck_decided = false;  // The R ∪ T pre-check settled the answer.
  std::size_t num_pending = 0;
  std::size_t num_valid_nodes = 0;
  std::size_t fd_conflict_pairs = 0;
  std::size_t num_components = 0;          // Opt only.
  /// Opt only: the Θ_q equalities Decompose merged onto Θ_I — those of the
  /// compiled (non-redundant) Θ_q that no Θ_I equality implies. Reported
  /// whether or not the partition came from the decomposition memo.
  std::size_t theta_q_merged = 0;
  /// Opt only: the component partition came from the decomposition memo (a
  /// check with the same residual Θ_q shape since the last cache refresh)
  /// instead of a fresh merge.
  bool decomposition_reused = false;
  std::size_t num_components_covered = 0;  // Opt only.
  /// Components whose search ran to completion (covered-and-searched or
  /// filtered by covers). With an expired budget this is how far the scan
  /// got; without one it equals num_components.
  std::size_t components_completed = 0;
  std::size_t num_cliques = 0;
  std::size_t num_worlds_evaluated = 0;
  /// Appendability probes GetMaximal ran, summed over the check's worlds —
  /// including those that filled slots of the engine's appendability-to-R
  /// status, so a repeat check at one database version runs no more than
  /// the first. A count of work, read from no clock.
  std::size_t maximal_probes = 0;
  /// The check's BudgetLimits tripped (deadline or a work ceiling), or the
  /// exhaustive search reached DcSatEngine::kMaxExhaustiveWorlds. The
  /// result is still decided if a violating world was found first.
  bool budget_expired = false;
  bool steady_cache_hit = false;  // fd-graph/Θ_I caches were already fresh.
  double total_seconds = 0;
  double graph_seconds = 0;  // fd-graph + component construction.
};

struct DcSatResult {
  /// False: the answer did not settle before the check's budget
  /// (DcSatOptions::budget) expired or, on the exhaustive path, before
  /// DcSatEngine::kMaxExhaustiveWorlds worlds were enumerated without a
  /// violating one — `satisfied`/`witness` are meaningless and the stats
  /// describe the partial search. A caller treats both alike: the monitor
  /// reports kUndecided and retries on its backoff schedule.
  bool decided = true;
  /// D |= ¬q: the denial constraint holds in every possible world.
  bool satisfied = false;
  /// When !satisfied: the pending transactions of one violating world.
  std::optional<std::vector<PendingId>> witness;
  DcSatStats stats;
};

/// Decides denial-constraint satisfaction over one blockchain database,
/// owning the steady-state structures of paper Section 6.3: the
/// fd-transaction graph, the Θ_I part of the ind-graph components, the
/// per-transaction validity bits, and the per-transaction
/// appendability-to-R status the clique search's GetMaximalOfClique reads
/// (filled lazily, reset by every refreshing cache refresh). Caches are
/// keyed on the database version; after mutations they are always patched
/// from the database's mutation log — including direct base-state inserts,
/// retractions and reorg restores — and rebuilt from scratch only when the
/// batch holds more than kMaxDeltaEvents events, the log was trimmed past
/// the engine's cursor, or one batch both integrated and applied a
/// transaction.
class DcSatEngine {
 public:
  /// A refresh replays at most this many mutation events; beyond it, replay
  /// costs more than reconstruction and the caches are rebuilt.
  static constexpr std::size_t kMaxDeltaEvents = 256;

  /// `db` must outlive the engine.
  explicit DcSatEngine(const BlockchainDatabase* db) : db_(db) {}

  const BlockchainDatabase& db() const { return *db_; }

  /// Decides D |= ¬q. Fails if `q` does not compile against the database,
  /// or if an explicitly requested algorithm is unsound for `q` (kNaive/
  /// kOpt on a non-monotone constraint, kOpt on a disconnected or aggregate
  /// constraint). Keeps the steady-state caches fresh as a side effect.
  ///
  /// With kAuto the check routes on `q`'s static class (ClassifyConstraint
  /// over ProvedUnsatisfiable and the compiled query's analysis, computed
  /// once per compiled query and cached beside it): kTriviallyUnsat is
  /// vacuously satisfied without touching data (kStatic), the PTIME classes
  /// run the Theorem-1 fragment they inhabit (kTractable), and everything
  /// else — or a fragment that abstains — runs GeneralSearchAlgorithm.
  StatusOr<DcSatResult> Check(const DenialConstraint& q,
                              const DcSatOptions& options = {});

  /// Const query path for concurrent callers (ConstraintMonitor::Poll):
  /// decides D |= ¬q for q = `plan.source()` with its parameters bound to
  /// `binding` (empty for a ground plan), on a plan compiled against this
  /// database, without touching the engine's caches. Routes on `klass`
  /// exactly as Check routes on its cached class: pass Classify(plan, q with
  /// `binding` substituted). Θ_q and connectivity are the plan's, which a
  /// template's parameters leave sound for every binding (DESIGN §13).
  /// Fails with InvalidArgument on a binding the plan rejects
  /// (CompiledQuery::ValidateBinding). Requires PrepareSteadyState (or any
  /// Check) to have run since the last database mutation; fails with
  /// Internal otherwise. Many threads may call this simultaneously as long
  /// as the database is not mutated concurrently. They share the
  /// decomposition memo (see Decompose) and the appendability-to-R status.
  StatusOr<DcSatResult> CheckPrepared(const CompiledQuery& plan,
                                      const Tuple& binding,
                                      TractabilityClass klass,
                                      const DcSatOptions& options = {}) const;

  /// The static class Check routes on: ClassifyConstraint over `plan`'s
  /// source and structural analysis, with the unsat proof of `ground` —
  /// the source itself, or a template source with a binding substituted
  /// (the only binding-dependent input). Compiles nothing.
  TractabilityClass Classify(const CompiledQuery& plan,
                             const DenialConstraint& ground) const;

  /// Statically analyzes `q` against this database and its integrity
  /// constraints (no base-state probe: the engine re-checks R itself on
  /// every check, so the class stays data-independent). Compiles nothing,
  /// so it builds no index; an error-free report still means `q` compiles.
  AnalysisReport Analyze(const DenialConstraint& q) const;

  /// Forces cache (re)construction; returns the fd graph for inspection.
  const FdGraph& PrepareSteadyState();

  /// The components the clique search runs over, from the current caches
  /// (PrepareSteadyState or a Check must have run since the last database
  /// mutation). With `theta_q` (OptDCSat): the components of the valid
  /// nodes under Θ_I ∪ Θ_q, where only the Θ_q equalities no Θ_I equality
  /// Implies are merged — the rest would repeat unions Θ_I already made —
  /// and their count (the residual's size) is stored in `*theta_q_merged`
  /// when it is non-null. The partition depends only on that residual, not
  /// on q's constants, so it is memoized per residual shape until the next
  /// cache refresh (see kDecompositionMemoCapacity); `*reused`, when
  /// non-null, says whether this call was answered from the memo. With null
  /// `theta_q` (NaiveDCSat): one component holding every valid node, none
  /// when no node is valid. Safe to call from concurrent const callers.
  std::shared_ptr<const ComponentList> Decompose(
      const std::vector<EqualityConstraint>* theta_q,
      std::size_t* theta_q_merged = nullptr, bool* reused = nullptr) const;

  /// The built-in cap of the exhaustive possible-world search, which
  /// materializes every world it finds: past it the check is undecided, as
  /// if a budget had expired, whatever DcSatOptions::budget says.
  static constexpr std::size_t kMaxExhaustiveWorlds = std::size_t{1} << 20;

  /// Capacity of the decomposition memo (FIFO eviction beyond it). Each
  /// entry holds one partition of the valid nodes, ~16 bytes per node.
  static constexpr std::size_t kDecompositionMemoCapacity = 8;

  /// Capacity of the compiled-query cache (FIFO eviction beyond it). A
  /// FIFO cache cycled through more distinct queries than it holds never
  /// hits, so this covers perfbench `adhoc`'s 50 queries.
  static constexpr std::size_t kCompiledCacheCapacity = 64;

  /// Compiled-query cache for Check. Pollers and benchmark harnesses
  /// re-check the same constraints; recompiling per check (plan
  /// construction, structural analysis, Θ_q derivation, static
  /// classification) is pure overhead there. Keyed by the query itself
  /// (DenialConstraint's ==, so `4` and `4.0` share a plan, as they compile
  /// alike): plans and classes depend only on the query's structure, so one
  /// entry stays valid across database mutations (see CompiledQuery). Fails
  /// on a query with unbound parameters.
  ///
  /// Entries are shared-ownership: the returned query stays valid for as
  /// long as the caller holds the pointer, across arbitrary later compiles,
  /// cache growth, and FIFO eviction. (A previous revision returned a raw
  /// pointer into the cache vector, which a later GetOrCompile could
  /// reallocate — dangling every outstanding compiled query.)
  StatusOr<std::shared_ptr<const CompiledQuery>> GetOrCompile(
      const DenialConstraint& q);

  const SteadyStateStats& steady_state_stats() const { return steady_stats_; }
  /// Describes the most recent cache refresh attempt (reset by every Check /
  /// PrepareSteadyState; `refreshed` is false after a version cache hit).
  const SteadyStateRefresh& last_refresh() const { return last_refresh_; }

 private:
  /// The whole decision procedure after compilation, against fresh caches,
  /// for `compiled`'s source under `binding`, routed on `klass` (its static
  /// class).
  StatusOr<DcSatResult> CheckImpl(const CompiledQuery& compiled,
                                  const Tuple& binding,
                                  const DcSatOptions& options,
                                  TractabilityClass klass, bool cache_hit,
                                  const Stopwatch& total_watch) const;

  /// The component search of the Naive and Opt paths: per component, the
  /// cover filter (`query`'s CoversConstants, when `use_covers`), then
  /// Bron–Kerbosch over the component with one ChargeWorld per clique,
  /// GetMaximalOfClique, then `query`
  /// over the maximal world, with `binding` filling its parameters. Returns
  /// the active pending ids of the first world that satisfies `query` in
  /// the lowest such component, or nullopt.
  /// Scans the components in index order on the caller's thread and ends at
  /// the first violating world or budget expiry. Accumulates the coverage,
  /// completion, clique, world and probe counts into `stats` and sets
  /// `stats.budget_expired` when `budget` (may be null) ended some
  /// component early.
  std::optional<std::vector<PendingId>> SearchComponents(
      const ComponentList& components, const CompiledQuery& query,
      const Tuple& binding, bool use_covers, const Budget* budget,
      bool use_pivot, DcSatStats& stats) const;

  void RefreshCaches();
  /// Patches fd_graph_/theta_i_ from the mutation events since
  /// consumed_seq_. Returns false — leaving the caches untouched, all
  /// eligibility checks run before the first mutation — when the delta path
  /// is ineligible (no graph yet, trimmed log, oversized batch, a
  /// payload-less base-state event, or an add-or-restore+apply of one
  /// transaction within the batch, whose cascade replay would be unsound).
  bool TryIncrementalRefresh();

  const BlockchainDatabase* db_;
  std::uint64_t cached_version_ = ~std::uint64_t{0};
  /// Mutation-log position up to which the caches have been maintained.
  std::uint64_t consumed_seq_ = 0;
  std::optional<FdGraph> fd_graph_;
  EqualityComponents theta_i_;
  SteadyStateStats steady_stats_;
  SteadyStateRefresh last_refresh_;
  /// The compiled query is held behind shared_ptr so that cache slots have
  /// no address or lifetime coupling to the vector: growth, FIFO eviction
  /// and shuffles only move the controlling pointers, never the queries
  /// callers may still hold.
  struct CompiledCacheEntry {
    std::shared_ptr<const CompiledQuery> compiled;
    /// The query's static class, computed once when it compiled.
    TractabilityClass klass;
  };
  /// GetOrCompile's cache slot for `q`; valid until the next call.
  StatusOr<const CompiledCacheEntry*> LookupOrCompile(
      const DenialConstraint& q);
  std::vector<CompiledCacheEntry> compiled_cache_;
  // The internally-synchronized state of the engine: the decomposition
  // memo, reached from const Check paths that may race only with each
  // other. Everything above (fd_graph_, theta_i_, compiled_cache_, the
  // stats) is externally synchronized — a DcSatEngine belongs to one
  // monitor/caller thread at a time, which ConstraintMonitor enforces by
  // holding its own mutex_ across every engine call.
  /// One finished Θ_I ∪ residual-Θ_q partition, keyed by the residual in
  /// canonical form (see Decompose). Valid only for the caches it was
  /// derived from: every refreshing RefreshCaches clears the memo.
  struct MemoEntry {
    std::vector<std::size_t> key;
    std::shared_ptr<const ComponentList> components;
  };
  mutable Mutex memo_mutex_{LockRank::kDecompositionMemo};
  mutable std::vector<MemoEntry> memo_ BCDB_GUARDED_BY(memo_mutex_);
  /// The memoized partition under `key`, or null.
  std::shared_ptr<const ComponentList> MemoLookup(
      const std::vector<std::size_t>& key) const BCDB_REQUIRES(memo_mutex_);
  /// Per pending slot, appendability to R (see BaseAppendability). Same
  /// lifetime as the memo — every refreshing RefreshCaches resets it — but
  /// lock-free: concurrent const checks fill it through atomic slots, and
  /// a duplicated fill stores the same answer.
  BaseAppendability appendability_;
};

}  // namespace bcdb

#endif  // BCDB_CORE_DCSAT_H_
