#include "core/dcsat.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/bron_kerbosch.h"
#include "core/get_maximal.h"
#include "core/ind_graph.h"
#include "core/possible_worlds.h"
#include "core/tractable.h"
#include "query/analysis.h"
#include "util/stopwatch.h"

namespace bcdb {

const char* DcSatAlgorithmToString(DcSatAlgorithm algorithm) {
  switch (algorithm) {
    case DcSatAlgorithm::kAuto:
      return "Auto";
    case DcSatAlgorithm::kNaive:
      return "NaiveDCSat";
    case DcSatAlgorithm::kOpt:
      return "OptDCSat";
    case DcSatAlgorithm::kExhaustive:
      return "Exhaustive";
    case DcSatAlgorithm::kTractable:
      return "TractableFragment";
    case DcSatAlgorithm::kStatic:
      return "StaticAnalysis";
  }
  return "?";
}

DcSatAlgorithm GeneralSearchAlgorithm(const DenialConstraint& q,
                                      const QueryAnalysis& analysis) {
  if (!analysis.monotone) return DcSatAlgorithm::kExhaustive;
  if (analysis.connected && !q.is_aggregate()) return DcSatAlgorithm::kOpt;
  return DcSatAlgorithm::kNaive;
}

namespace {

/// Active pending ids of a world view.
std::vector<PendingId> WitnessOf(const WorldView& view) {
  std::vector<PendingId> ids;
  view.active_bits().ForEach([&](std::size_t id) { ids.push_back(id); });
  return ids;
}

/// The decomposition memo's key for a residual Θ_q: one flat record per
/// equality — arity, then one side's relation and positions, then the
/// other's — with the (lhs, rhs) position pairs sorted and the equality
/// oriented so the smaller record wins, the records sorted. Neither the
/// order of the equalities, nor that of an equality's position pairs, nor
/// its orientation changes the partition they induce, so residuals that
/// differ only there share one key.
std::vector<std::size_t> CanonicalResidualKey(
    const std::vector<EqualityConstraint>& residual) {
  std::vector<std::vector<std::size_t>> records;
  records.reserve(residual.size());
  for (const EqualityConstraint& eq : residual) {
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t i = 0; i < eq.lhs_positions.size(); ++i) {
      pairs.emplace_back(eq.lhs_positions[i], eq.rhs_positions[i]);
    }
    auto record = [&](std::size_t first_relation,
                      std::size_t second_relation) {
      std::sort(pairs.begin(), pairs.end());
      std::vector<std::size_t> out{pairs.size(), first_relation};
      for (const auto& pair : pairs) out.push_back(pair.first);
      out.push_back(second_relation);
      for (const auto& pair : pairs) out.push_back(pair.second);
      return out;
    };
    const std::vector<std::size_t> forward =
        record(eq.lhs_relation_id, eq.rhs_relation_id);
    for (auto& pair : pairs) std::swap(pair.first, pair.second);
    const std::vector<std::size_t> backward =
        record(eq.rhs_relation_id, eq.lhs_relation_id);
    records.push_back(std::min(forward, backward));
  }
  std::sort(records.begin(), records.end());
  std::vector<std::size_t> key;
  for (const std::vector<std::size_t>& record : records) {
    key.insert(key.end(), record.begin(), record.end());
  }
  return key;
}

}  // namespace

const FdGraph& DcSatEngine::PrepareSteadyState() {
  RefreshCaches();
  return *fd_graph_;
}

void DcSatEngine::RefreshCaches() {
  last_refresh_ = SteadyStateRefresh{};
  if (cached_version_ == db_->version() && fd_graph_.has_value()) return;
  last_refresh_.refreshed = true;
  {
    // Every memoized partition was derived from the caches patched below.
    MutexLock lock(memo_mutex_);
    memo_.clear();
  }
  // Appendability to R depends on R and the pending set, both of which the
  // mutations behind this refresh may have changed.
  appendability_.Reset(db_->num_pending());
  if (!TryIncrementalRefresh()) {
    fd_graph_.emplace(*db_);
    theta_i_.Rebuild(*db_, EqualitiesFromConstraints(db_->constraints()),
                     fd_graph_->valid_nodes());
    last_refresh_.full_rebuild = true;
    ++steady_stats_.full_rebuilds;
  }
  cached_version_ = db_->version();
  consumed_seq_ = db_->mutations().end_seq();
}

bool DcSatEngine::TryIncrementalRefresh() {
  if (!fd_graph_.has_value()) return false;
  std::vector<MutationEvent> events;
  if (db_->mutations().ReadSince(consumed_seq_, &events) !=
      MutationLog::ReadResult::kOk) {
    // The bounded log was trimmed past our cursor (or the cursor is foreign):
    // deltas were missed, the maintained state can no longer be patched
    // soundly.
    ++steady_stats_.fallbacks_missed_events;
    return false;
  }
  if (events.size() > kMaxDeltaEvents) {
    ++steady_stats_.fallbacks_batch_too_large;
    return false;
  }
  std::vector<PendingId> integrated_in_batch;
  for (const MutationEvent& event : events) {
    if ((event.kind == MutationKind::kCurrentInserted ||
         event.kind == MutationKind::kCurrentRemoved) &&
        (event.relation_ids.empty() || event.tuple.arity() == 0)) {
      // A base-state event without its tuple payload cannot drive the
      // determinant-bucket probes (never produced by the public API, but a
      // hand-built event stream could). Rebuild.
      ++steady_stats_.fallbacks_base_insert;
      return false;
    }
    if (event.kind == MutationKind::kPendingAdded ||
        event.kind == MutationKind::kPendingRestored) {
      integrated_in_batch.push_back(event.pending_id);
    } else if (event.kind == MutationKind::kPendingApplied &&
               std::find(integrated_in_batch.begin(),
                         integrated_in_batch.end(),
                         event.pending_id) != integrated_in_batch.end()) {
      // An AddPending (or UnapplyPending) and ApplyPending of one
      // transaction inside a single batch cannot be replayed: the
      // add/restore replays against the post-apply database (IsPending is
      // already false), so the node is never integrated, and the apply's
      // cascade — the still-pending FD-conflictors it invalidates — would
      // be computed from the absent node's conflicts and come up empty,
      // leaving those conflictors marked valid where a from-scratch build
      // invalidates them. Rebuild.
      ++steady_stats_.fallbacks_applied_in_batch;
      return false;
    }
  }

  // Replay the batch in event order. The database has already reached its
  // final state, so validity probes (AddPendingNode) see the final base —
  // exactly what a from-scratch build over the final state would see —
  // while removals work off recorded footprints and never re-read tuples.
  //
  // Base-state mutations ride on validity monotonicity: growing R can only
  // *invalidate* pending transactions (more base tuples, more FD
  // conflicts — found by one determinant-bucket probe per FD), while
  // shrinking R (kCurrentRemoved) or returning an applied transaction to
  // pending (kPendingRestored) can only *revalidate* — so those events
  // re-probe exactly the still-invalid pending transactions touching the
  // event's relations against the final base. Pairwise pending/pending
  // conflicts never depend on R at all.
  //
  // The fd graph reports every node that joined or left the valid set;
  // exactly those are forwarded to Θ_I.
  bool removed_nodes = false;
  auto leave = [&](const std::vector<PendingId>& nodes) {
    for (PendingId node : nodes) theta_i_.RemoveNode(node);
    removed_nodes |= !nodes.empty();
  };
  auto revalidate = [&](const std::vector<std::size_t>& relation_ids) {
    for (PendingId node : fd_graph_->RevalidateTouching(relation_ids)) {
      theta_i_.AddNode(node);
    }
  };
  std::vector<PendingId>& cascade = last_refresh_.cascade_invalidated;

  for (const MutationEvent& event : events) {
    switch (event.kind) {
      case MutationKind::kPendingAdded:
        theta_i_.GrowTo(db_->num_pending());
        // False as well when an earlier revalidation in this batch (which
        // replays against the final database state) already integrated it.
        if (fd_graph_->AddPendingNode(event.pending_id)) {
          theta_i_.AddNode(event.pending_id);
        }
        break;
      case MutationKind::kPendingDiscarded:
        if (fd_graph_->RemovePendingNode(event.pending_id)) {
          leave({event.pending_id});
        }
        break;
      case MutationKind::kPendingApplied: {
        const std::vector<PendingId> left =
            fd_graph_->ApplyPendingNode(event.pending_id);
        leave(left);
        if (!left.empty()) {
          cascade.insert(cascade.end(), left.begin() + 1, left.end());
        }
        break;
      }
      case MutationKind::kCurrentInserted: {
        const std::vector<PendingId> invalidated = fd_graph_->InsertBaseTuple(
            event.relation_ids.front(), event.tuple);
        leave(invalidated);
        cascade.insert(cascade.end(), invalidated.begin(), invalidated.end());
        break;
      }
      case MutationKind::kCurrentRemoved:
        revalidate(event.relation_ids);
        break;
      case MutationKind::kPendingRestored:
        // The restored transaction itself first (its tuples left R and are
        // pending again), then the nodes its base departure may have
        // revalidated — any FD-conflictor shares the FD's relation, so the
        // footprint filter covers the whole former cascade.
        if (fd_graph_->AddPendingNode(event.pending_id)) {
          theta_i_.AddNode(event.pending_id);
        }
        revalidate(event.relation_ids);
        break;
    }
  }
  // A union-find cannot split, so removals leave it too coarse; one replay
  // of the retained buckets per batch restores exactness.
  if (removed_nodes) theta_i_.RecomputeUnions();
  last_refresh_.events_applied = events.size();
  ++steady_stats_.incremental_batches;
  steady_stats_.incremental_events += events.size();
  return true;
}

StatusOr<const DcSatEngine::CompiledCacheEntry*>
DcSatEngine::LookupOrCompile(const DenialConstraint& q) {
  for (const CompiledCacheEntry& entry : compiled_cache_) {
    if (entry.compiled->source() == q) return &entry;
  }
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(q, &db_->database());
  if (!compiled.ok()) return compiled.status();
  BCDB_RETURN_IF_ERROR(compiled->RequireGround());
  const TractabilityClass klass = Classify(*compiled, q);
  if (compiled_cache_.size() >= kCompiledCacheCapacity) {
    // FIFO eviction drops only the cache's reference; queries handed out by
    // earlier calls stay alive with their holders.
    compiled_cache_.erase(compiled_cache_.begin());
  }
  compiled_cache_.push_back(CompiledCacheEntry{
      std::make_shared<const CompiledQuery>(std::move(*compiled)), klass});
  return &compiled_cache_.back();
}

StatusOr<std::shared_ptr<const CompiledQuery>> DcSatEngine::GetOrCompile(
    const DenialConstraint& q) {
  StatusOr<const CompiledCacheEntry*> entry = LookupOrCompile(q);
  if (!entry.ok()) return entry.status();
  return (*entry)->compiled;
}

StatusOr<DcSatResult> DcSatEngine::Check(const DenialConstraint& q,
                                         const DcSatOptions& options) {
  Stopwatch total_watch;
  StatusOr<const CompiledCacheEntry*> entry = LookupOrCompile(q);
  if (!entry.ok()) return entry.status();
  const bool cache_hit =
      cached_version_ == db_->version() && fd_graph_.has_value();
  RefreshCaches();
  return CheckImpl(*(*entry)->compiled, Tuple(), options, (*entry)->klass,
                   cache_hit, total_watch);
}

StatusOr<DcSatResult> DcSatEngine::CheckPrepared(
    const CompiledQuery& plan, const Tuple& binding, TractabilityClass klass,
    const DcSatOptions& options) const {
  Stopwatch total_watch;
  BCDB_RETURN_IF_ERROR(plan.ValidateBinding(binding));
  if (cached_version_ != db_->version() || !fd_graph_.has_value()) {
    return Status::Internal(
        "CheckPrepared requires fresh steady-state caches; call "
        "PrepareSteadyState after the last database mutation");
  }
  return CheckImpl(plan, binding, options, klass, /*cache_hit=*/true,
                   total_watch);
}

TractabilityClass DcSatEngine::Classify(const CompiledQuery& plan,
                                        const DenialConstraint& ground) const {
  // The class needs only the catalog, the integrity constraints and the
  // structural analysis the compiler already derived, not a full
  // AnalyzeConstraint report.
  return ClassifyConstraint(plan.source(), plan.analysis(), db_->constraints(),
                            ProvedUnsatisfiable(ground, db_->catalog()));
}

AnalysisReport DcSatEngine::Analyze(const DenialConstraint& q) const {
  AnalyzerOptions analyzer_options;
  // The Check paths evaluate R themselves (pre-check and the base-view
  // probe), so the class must not depend on the data.
  analyzer_options.check_base_state = false;
  return AnalyzeConstraint(q, db_->database(), db_->constraints(),
                           analyzer_options);
}

StatusOr<DcSatResult> DcSatEngine::CheckImpl(
    const CompiledQuery& compiled, const Tuple& binding,
    const DcSatOptions& options, TractabilityClass klass, bool cache_hit,
    const Stopwatch& total_watch) const {
  const DenialConstraint& q = compiled.source();
  const QueryAnalysis& analysis = compiled.analysis();
  DcSatResult result;
  result.stats.steady_cache_hit = cache_hit;

  // --- Routing: the static class under kAuto, else the requested search. ---
  DcSatAlgorithm algorithm = options.algorithm;
  if (algorithm == DcSatAlgorithm::kAuto) {
    if (klass == TractabilityClass::kTriviallyUnsat) {
      // q has no satisfying assignment in any world over this catalog, so
      // D |= ¬q vacuously — no data access at all. The general search
      // agrees: its R ∪ T pre-check evaluates q to false.
      result.stats.algorithm_used = DcSatAlgorithm::kStatic;
      result.stats.num_pending = db_->CountPending();
      result.satisfied = true;
      result.stats.total_seconds = total_watch.ElapsedSeconds();
      return result;
    }
    std::optional<DcSatResult> tractable =
        TryTractableDcSat(*db_, *fd_graph_, compiled, binding, klass);
    if (tractable.has_value()) {
      tractable->stats.steady_cache_hit = cache_hit;
      tractable->stats.total_seconds = total_watch.ElapsedSeconds();
      return *tractable;
    }
    algorithm = GeneralSearchAlgorithm(q, analysis);
  } else if (algorithm == DcSatAlgorithm::kTractable ||
             algorithm == DcSatAlgorithm::kStatic) {
    return Status::InvalidArgument(
        std::string(DcSatAlgorithmToString(algorithm)) +
        " is selected automatically; use kAuto");
  } else if (algorithm != DcSatAlgorithm::kExhaustive) {
    if (!analysis.monotone) {
      return Status::InvalidArgument(
          std::string(DcSatAlgorithmToString(algorithm)) +
          " requires a monotone denial constraint (" +
          analysis.monotone_reason + ")");
    }
    if (algorithm == DcSatAlgorithm::kOpt &&
        (q.is_aggregate() || !analysis.connected)) {
      return Status::InvalidArgument(
          "OptDCSat requires a connected, non-aggregate denial constraint");
    }
  }
  result.stats.algorithm_used = algorithm;
  result.stats.num_pending = db_->CountPending();

  // With limits set, one tracker is probed at every cooperative
  // preemption point below; with the default (unlimited) limits the pointer
  // stays null and every search path is bit-identical to the unbudgeted
  // reference.
  std::optional<Budget> budget_storage;
  const Budget* budget = nullptr;
  if (!options.budget.unlimited()) {
    budget_storage.emplace(options.budget);
    budget = &*budget_storage;
  }

  if (algorithm == DcSatAlgorithm::kExhaustive) {
    const PossibleWorldsEnumeration enumeration =
        EnumeratePossibleWorldsWithin(*db_, kMaxExhaustiveWorlds, budget);
    result.satisfied = true;
    // The enumerated worlds are evaluated even after expiry (bounded work:
    // the budget or the cap already bounded how many exist): a violating
    // world among them decides unsat conclusively, budget or not.
    for (const WorldView& world : enumeration.worlds) {
      ++result.stats.num_worlds_evaluated;
      if (compiled.Evaluate(world, binding)) {
        result.satisfied = false;
        result.witness = WitnessOf(world);
        break;
      }
    }
    if (result.satisfied && !enumeration.complete) {
      // Certifying satisfaction needs all of Poss(D); we ran out mid-way.
      result.decided = false;
      result.satisfied = false;
    }
    result.stats.budget_expired = !enumeration.complete;
    result.stats.total_seconds = total_watch.ElapsedSeconds();
    return result;
  }

  // --- Monotone pre-check over R ∪ T (Section 6.3). ---
  if (options.use_precheck &&
      !compiled.Evaluate(db_->PendingUnionView(), binding)) {
    result.satisfied = true;
    result.stats.precheck_decided = true;
    result.stats.total_seconds = total_watch.ElapsedSeconds();
    return result;
  }

  // --- Steady-state structures (kept fresh by the caller). ---
  Stopwatch graph_watch;
  result.stats.num_valid_nodes = fd_graph_->valid_nodes().Count();
  result.stats.fd_conflict_pairs = fd_graph_->num_conflict_pairs();

  // The base world R is itself a possible world; the clique search below
  // reaches it only when a component is empty, so check it once up front.
  ++result.stats.num_worlds_evaluated;
  if (compiled.Evaluate(db_->BaseView(), binding)) {
    result.satisfied = false;
    result.witness = std::vector<PendingId>{};
    result.stats.total_seconds = total_watch.ElapsedSeconds();
    return result;
  }

  // --- Component structure (OptDCSat) or one big component (Naive). ---
  const bool opt = algorithm == DcSatAlgorithm::kOpt;
  const std::shared_ptr<const ComponentList> components =
      Decompose(opt ? &compiled.equalities() : nullptr,
                &result.stats.theta_q_merged,
                &result.stats.decomposition_reused);
  result.stats.num_components = components->size();
  result.stats.graph_seconds = graph_watch.ElapsedSeconds();

  // --- Clique search: the first violating world decides. ---
  result.witness =
      SearchComponents(*components, compiled, binding,
                       opt && options.use_covers, budget, options.use_pivot,
                       result.stats);
  result.satisfied = !result.witness.has_value();
  if (result.satisfied && result.stats.budget_expired) {
    // No counterexample found and parts of the search were skipped: the
    // answer is genuinely unknown within this budget.
    result.decided = false;
    result.satisfied = false;
  }
  result.stats.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

std::shared_ptr<const ComponentList> DcSatEngine::Decompose(
    const std::vector<EqualityConstraint>* theta_q,
    std::size_t* theta_q_merged, bool* reused) const {
  if (reused != nullptr) *reused = false;
  const DynamicBitset& valid = fd_graph_->valid_nodes();
  if (theta_q == nullptr) {
    auto components = std::make_shared<ComponentList>();
    if (valid.Any()) {
      components->members = valid.ToVector();
      components->offsets.push_back(components->members.size());
    }
    return components;
  }
  // Θ_I is maintained over the same valid nodes, so a Θ_q equality that a
  // Θ_I equality implies would only repeat unions already made.
  std::vector<EqualityConstraint> merged;
  for (const EqualityConstraint& eq : *theta_q) {
    const bool implied = std::any_of(
        theta_i_.equalities().begin(), theta_i_.equalities().end(),
        [&](const EqualityConstraint& ind) { return Implies(ind, eq); });
    if (!implied) merged.push_back(eq);
  }
  if (theta_q_merged != nullptr) *theta_q_merged = merged.size();
  std::vector<std::size_t> key = CanonicalResidualKey(merged);
  {
    MutexLock lock(memo_mutex_);
    if (std::shared_ptr<const ComponentList> hit = MemoLookup(key)) {
      if (reused != nullptr) *reused = true;
      return hit;
    }
  }
  // A miss merges outside the lock, so concurrent checks of other shapes
  // (or of this one) never wait on it.
  UnionFind uf = theta_i_.components();  // Θ_I precomputed; add the rest.
  MergeEqualityComponents(*db_, merged, valid, uf);
  auto components =
      std::make_shared<const ComponentList>(GroupComponents(valid, uf));
  MutexLock lock(memo_mutex_);
  // A concurrent miss of the same shape may have stored its (identical)
  // partition first; keep that one.
  if (std::shared_ptr<const ComponentList> stored = MemoLookup(key)) {
    return stored;
  }
  if (memo_.size() >= kDecompositionMemoCapacity) {
    // Dropping the memo's reference leaves callers' partitions alive.
    memo_.erase(memo_.begin());
  }
  memo_.push_back(MemoEntry{std::move(key), components});
  return components;
}

std::shared_ptr<const ComponentList> DcSatEngine::MemoLookup(
    const std::vector<std::size_t>& key) const {
  for (const MemoEntry& entry : memo_) {
    if (entry.key == key) return entry.components;
  }
  return nullptr;
}

std::optional<std::vector<PendingId>> DcSatEngine::SearchComponents(
    const ComponentList& components, const CompiledQuery& query,
    const Tuple& binding, bool use_covers, const Budget* budget,
    bool use_pivot, DcSatStats& stats) const {
  // Scans the components in index order. Budget expiry ends the scan (the
  // budget latches, so the rest would only be marked expired too), and so
  // does the first violating world.
  for (std::size_t index = 0; index < components.size(); ++index) {
    if (budget != nullptr && budget->Expired()) {
      stats.budget_expired = true;
      return std::nullopt;
    }
    const std::span<const PendingId> component = components[index];
    if (use_covers) {
      WorldView cover_view = db_->BaseView();
      for (PendingId id : component) {
        cover_view.Activate(static_cast<TupleOwner>(id));
      }
      if (!query.CoversConstants(cover_view, binding)) {
        ++stats.components_completed;
        continue;
      }
    }
    ++stats.num_components_covered;

    DynamicBitset subset(db_->num_pending());
    for (PendingId id : component) subset.Set(id);

    std::optional<std::vector<PendingId>> stop_world;
    const CliqueEnumerationStats clique_stats = EnumerateMaximalCliques(
        fd_graph_->conflict_lists(), subset, use_pivot,
        [&](const std::vector<std::size_t>& clique) {
          if (budget != nullptr && !budget->ChargeWorld()) {
            return false;  // Budget expired; unwind without evaluating.
          }
          GetMaximalStats maximal_stats;
          const WorldView world = GetMaximalOfClique(
              *db_, *fd_graph_, appendability_, clique, &maximal_stats);
          ++stats.num_worlds_evaluated;
          stats.maximal_probes += maximal_stats.probes;
          if (!query.Evaluate(world, binding)) return true;
          stop_world = WitnessOf(world);
          return false;
        },
        budget);
    stats.num_cliques += clique_stats.cliques_reported;
    // stopped_early without a violating world means a budget charge ended
    // the enumeration (the expiry-probe stop is flagged directly); either
    // way the component did not finish.
    if (clique_stats.budget_expired ||
        (clique_stats.stopped_early && !stop_world.has_value())) {
      stats.budget_expired = true;
      return stop_world;
    }
    ++stats.components_completed;
    if (stop_world.has_value()) return stop_world;
  }
  return std::nullopt;
}

}  // namespace bcdb
