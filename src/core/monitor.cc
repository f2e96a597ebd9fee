#include "core/monitor.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <utility>

#include "query/analysis.h"
#include "query/compiled_query.h"
#include "query/parser.h"
#include "util/union_find.h"

namespace bcdb {

namespace {

/// Process-wide monitor identity source. Handles are stamped with their
/// minting monitor's uid so a handle index colliding across monitors can
/// never resolve against the wrong one.
std::atomic<std::uint64_t> g_monitor_uid BCDB_LOCK_FREE(
    "relaxed fetch_add id mint; uniqueness is all that matters") {1};

ConstraintMonitor::Verdict FromOutcome(TemplateBatchOutcome outcome) {
  switch (outcome) {
    case TemplateBatchOutcome::kHappened:
      return ConstraintMonitor::Verdict::kHappened;
    case TemplateBatchOutcome::kPossible:
      return ConstraintMonitor::Verdict::kPossible;
    case TemplateBatchOutcome::kImpossible:
      return ConstraintMonitor::Verdict::kImpossible;
    case TemplateBatchOutcome::kUndecided:
      return ConstraintMonitor::Verdict::kUndecided;
  }
  return ConstraintMonitor::Verdict::kUndecided;
}

}  // namespace

const char* ConstraintMonitor::VerdictToString(Verdict verdict) {
  switch (verdict) {
    case Verdict::kUnknown:
      return "unknown";
    case Verdict::kHappened:
      return "happened";
    case Verdict::kPossible:
      return "possible";
    case Verdict::kImpossible:
      return "impossible";
    case Verdict::kUndecided:
      return "undecided";
  }
  return "?";
}

ConstraintMonitor::ConstraintMonitor(BlockchainDatabase* db,
                                     MonitorOptions options)
    : db_(db),
      options_(options),
      engine_(db, options.steady),
      uid_(g_monitor_uid.fetch_add(1, std::memory_order_relaxed)) {
  listener_id_ = db_->AddMutationListener([this](const MutationEvent& event) {
    // Any event at all (even one with no attributable relations) wakes the
    // always-dirty entries; per-relation bits drive the precise filter.
    // Publish invokes listeners with no lock held, so taking the monitor
    // lock here is hierarchy-clean from any mutating thread.
    MutexLock lock(mutex_);
    mutated_since_poll_ = true;
    for (std::size_t relation_id : event.relation_ids) {
      MarkRelationDirty(relation_id);
    }
  });
}

ConstraintMonitor::~ConstraintMonitor() {
  db_->RemoveMutationListener(listener_id_);
}

void ConstraintMonitor::MarkRelationDirty(std::size_t relation_id) {
  if (relation_id >= dirty_relations_.size()) {
    dirty_relations_.Resize(relation_id + 1);
  }
  dirty_relations_.Set(relation_id);
}

std::string ConstraintMonitor::BindingSummary(const Tuple& binding) {
  return binding.ToString();
}

std::size_t ConstraintMonitor::CreateClass(std::string label,
                                           ConstraintTemplate tmpl,
                                           TemplateAnalysis analysis) {
  TemplateClass cls;
  cls.label = std::move(label);
  cls.key = std::move(analysis.class_key);
  // The dirty filter keys on the analyzer's IND-closed footprint: the
  // relations the constraint references, closed under IND coupling — a
  // mutation in R can change the possible worlds of an S-tuple when
  // S[x] ⊆ R[a] ties them together, so members over S must re-evaluate on
  // R churn even though the constraint never mentions R.
  cls.relation_ids = analysis.report.footprint;
  cls.always_dirty = !analysis.report.analysis.monotone;
  cls.batchable = analysis.batchable;
  cls.report = std::move(analysis.report);
  if (cls.batchable) {
    cls.generalized = tmpl.Generalized();
    StatusOr<std::vector<EqualityConstraint>> equalities =
        TemplateEqualitiesFromQuery(cls.generalized, db_->database().catalog());
    if (equalities.ok()) {
      cls.template_equalities = std::move(*equalities);
    } else {
      // Admission should have caught anything that trips equality
      // derivation; fall back to per-member evaluation rather than fail.
      cls.batchable = false;
    }
  }
  cls.tmpl = std::move(tmpl);
  classes_.push_back(std::move(cls));
  return classes_.size() - 1;
}

MonitorHandle ConstraintMonitor::AppendEntry(Entry entry) {
  const std::size_t slot = entries_.size();
  TemplateClass& cls = classes_[entry.class_id];
  cls.members.push_back(slot);
  ++cls.live_members;
  ++cls.members_version;
  entries_.push_back(std::move(entry));
  ++live_count_;
  return MonitorHandle(slot, uid_);
}

StatusOr<MonitorHandle> ConstraintMonitor::Add(std::string label,
                                               DenialConstraint q) {
  MutexLock lock(mutex_);
  // Registration-time rejection is the contract: the static analyzer runs
  // here, so a constraint Poll could never evaluate (unknown relation,
  // arity mismatch, unsafe variable, ...) fails the Add with every
  // diagnostic attached instead of surfacing at first poll.
  AnalysisReport report = engine_.Analyze(q);
  if (!report.ok()) {
    return Status::InvalidArgument("constraint '" + label +
                                   "' rejected by static analysis: " +
                                   report.ErrorSummary());
  }

  // Canonicalize into (template, binding): constants become parameters, and
  // the α-renamed skeleton plus IND-closed footprint keys the class — a
  // million structurally identical Adds land in one class and, when batch
  // admitted, cost one shared check per poll. The grounded footprint equals
  // the class footprint (relations are binding-independent), so the key can
  // be built without re-running the template analyzer on every Add.
  StatusOr<CanonicalizedConstraint> canon = ConstraintTemplate::Canonicalize(q);
  if (!canon.ok()) return canon.status();
  std::string key = canon->tmpl.CanonicalSkeleton() + "#fp:";
  for (std::size_t i = 0; i < report.footprint.size(); ++i) {
    if (i > 0) key += ",";
    key += std::to_string(report.footprint[i]);
  }

  std::size_t class_id;
  auto it = class_by_key_.find(key);
  if (it != class_by_key_.end()) {
    class_id = it->second;
  } else {
    TemplateAnalysis analysis =
        AnalyzeTemplate(canon->tmpl, db_->database(), db_->constraints());
    std::string class_label = canon->tmpl.CanonicalSkeleton();
    class_id = CreateClass(std::move(class_label), std::move(canon->tmpl),
                           std::move(analysis));
    class_by_key_.emplace(std::move(key), class_id);
  }

  Entry entry;
  entry.class_id = class_id;
  entry.label = std::move(label);
  entry.binding = Tuple(canon->binding);
  entry.q = std::move(q);
  entry.report = std::move(report);
  return AppendEntry(std::move(entry));
}

StatusOr<MonitorHandle> ConstraintMonitor::Add(std::string label,
                                               std::string_view query_text) {
  StatusOr<DenialConstraint> q = ParseDenialConstraint(query_text);
  if (!q.ok()) return q.status();
  return Add(std::move(label), *std::move(q));
}

StatusOr<TemplateHandle> ConstraintMonitor::RegisterTemplate(
    std::string label, ConstraintTemplate tmpl) {
  MutexLock lock(mutex_);
  TemplateAnalysis analysis =
      AnalyzeTemplate(tmpl, db_->database(), db_->constraints());
  if (!analysis.report.ok()) {
    return Status::InvalidArgument("template '" + label +
                                   "' rejected by static analysis: " +
                                   analysis.report.ErrorSummary());
  }
  const std::size_t class_id =
      CreateClass(std::move(label), std::move(tmpl), std::move(analysis));
  return TemplateHandle(class_id, uid_);
}

StatusOr<TemplateHandle> ConstraintMonitor::RegisterTemplate(
    std::string label, std::string_view template_text) {
  StatusOr<ConstraintTemplate> tmpl = ConstraintTemplate::Parse(template_text);
  if (!tmpl.ok()) return tmpl.status();
  return RegisterTemplate(std::move(label), *std::move(tmpl));
}

StatusOr<MonitorHandle> ConstraintMonitor::Bind(
    TemplateHandle tmpl, const std::vector<Value>& binding) {
  MutexLock lock(mutex_);
  if (FindClass(tmpl) == nullptr) {
    return Status::InvalidArgument(
        tmpl.valid() && tmpl.owner_ != uid_
            ? "template handle belongs to a different monitor"
            : "invalid template handle");
  }
  const TemplateClass& cls = classes_[tmpl.value()];
  if (binding.size() != cls.tmpl.num_params()) {
    return Status::InvalidArgument(
        "binding has " + std::to_string(binding.size()) +
        " values but template '" + cls.label + "' has " +
        std::to_string(cls.tmpl.num_params()) + " parameters");
  }

  Entry entry;
  entry.class_id = tmpl.value();
  entry.binding = Tuple(binding);
  entry.label = cls.label + BindingSummary(entry.binding);
  if (cls.batchable && options_.enable_template_batching) {
    // Batch members skip per-member grounding; mirror the grounded
    // compiler's constant type check so a bad binding is rejected here,
    // not silently never matched at the leaves.
    const Catalog& catalog = db_->database().catalog();
    const DenialConstraint& q = cls.tmpl.constraint();
    for (std::size_t p = 0; p < cls.tmpl.param_sites().size(); ++p) {
      for (const ParamSite& site : cls.tmpl.param_sites()[p]) {
        if (site.kind != ParamSite::Kind::kPositiveAtom) continue;
        const Atom& atom = q.positive_atoms[site.element_index];
        StatusOr<std::size_t> rel_id = catalog.RelationId(atom.relation);
        if (!rel_id.ok()) continue;  // Admission already vetted the schema.
        const RelationSchema& schema = catalog.schema(*rel_id);
        if (site.arg_index >= schema.arity()) continue;
        const Value& v = binding[p];
        const ValueType expected = schema.attribute(site.arg_index).type;
        const bool numeric_ok =
            v.IsNumeric() && (expected == ValueType::kInt ||
                              expected == ValueType::kReal);
        if (v.type() != expected && !numeric_ok) {
          return Status::InvalidArgument(
              "binding value " + v.ToString() + " for parameter '$" +
              cls.tmpl.param_names()[p] + "' has wrong type (expected " +
              ValueTypeToString(expected) + " at position " +
              std::to_string(site.arg_index) + " of atom " + atom.ToString() +
              ")");
        }
      }
    }
  } else {
    // Per-member evaluation needs the grounded machinery up front; this
    // also gives Bind the same full-analysis rejection surface as Add.
    BCDB_RETURN_IF_ERROR(GroundEntry(entry));
  }
  return AppendEntry(std::move(entry));
}

Status ConstraintMonitor::GroundEntry(Entry& entry) {
  const TemplateClass& cls = classes_[entry.class_id];
  StatusOr<DenialConstraint> grounded =
      cls.tmpl.Instantiate(entry.binding.values());
  if (!grounded.ok()) return grounded.status();
  AnalysisReport report = engine_.Analyze(*grounded);
  if (!report.ok()) {
    return Status::InvalidArgument(
        "binding " + BindingSummary(entry.binding) + " for template '" +
        cls.label + "' rejected by static analysis: " + report.ErrorSummary());
  }
  entry.q = *std::move(grounded);
  entry.report = std::move(report);
  return Status::OK();
}

Status ConstraintMonitor::Remove(MonitorHandle handle) {
  MutexLock lock(mutex_);
  if (!handle.valid()) {
    return Status::InvalidArgument("invalid monitor handle");
  }
  if (handle.owner_ != uid_) {
    return Status::InvalidArgument(
        "monitor handle belongs to a different monitor");
  }
  if (handle.value() >= entries_.size()) {
    return Status::InvalidArgument("monitor handle out of range");
  }
  Entry& entry = entries_[handle.value()];
  if (entry.removed) {
    return Status::NotFound("constraint already removed");
  }
  entry.removed = true;
  entry.verdict = Verdict::kUnknown;
  entry.q.reset();
  entry.report.reset();
  entry.compiled.reset();
  --classes_[entry.class_id].live_members;
  ++classes_[entry.class_id].members_version;
  --live_count_;
  return Status::OK();
}

bool ConstraintMonitor::ClassIsDirty(const TemplateClass& cls) const {
  if (!options_.dirty_tracking) return true;
  // Not proved monotone: any mutation anywhere may flip the verdict, but a
  // fully quiescent database (no events since the last completed poll)
  // cannot change any verdict — not even a non-monotone one.
  if (cls.always_dirty) return mutated_since_poll_;
  for (std::size_t relation_id : cls.relation_ids) {
    if (relation_id < dirty_relations_.size() &&
        dirty_relations_.Test(relation_id)) {
      return true;
    }
  }
  return false;
}

void ConstraintMonitor::AbsorbValidityDiff(const DynamicBitset& valid) {
  // A transaction whose possible-world membership flipped dirties its
  // relations even when no mutation event names it — the cascade case:
  // applying T invalidates every still-pending FD-conflictor of T, whose
  // tuples may live in relations the apply event never touched.
  for (std::size_t id = 0; id < valid.size(); ++id) {
    const bool before = id < prev_valid_.size() && prev_valid_.Test(id);
    if (before == valid.Test(id)) continue;
    for (std::size_t relation_id : db_->PendingRelations(id)) {
      MarkRelationDirty(relation_id);
    }
  }
  prev_valid_ = valid;
}

StatusOr<ConstraintMonitor::Verdict> ConstraintMonitor::EvaluateEntry(
    const Entry& entry, const DcSatOptions& options) const {
  // Happened? Evaluate over the current state only.
  if (entry.compiled->Evaluate(db_->BaseView())) return Verdict::kHappened;
  StatusOr<DcSatResult> result =
      engine_.CheckPrepared(*entry.q, *entry.compiled, *entry.report, options);
  if (!result.ok()) return result.status();
  if (!result->decided) return Verdict::kUndecided;
  return result->satisfied ? Verdict::kImpossible : Verdict::kPossible;
}

StatusOr<std::vector<ConstraintMonitor::Change>> ConstraintMonitor::Poll(
    const DcSatOptions& options) {
  MutexLock lock(mutex_);
  ++poll_stats_.polls;

  // Phase 1 (single-threaded): refresh the engine's steady-state caches
  // (incrementally when the mutation-delta path is eligible), settle the
  // dirty-relation set, and compile the standing queries that will run.
  // Compilation is what lazily builds hash indexes in the storage layer, so
  // doing it all here leaves the parallel phase below strictly read-only.
  const FdGraph& fd_graph = engine_.PrepareSteadyState();
  if (options_.dirty_tracking) AbsorbValidityDiff(fd_graph.valid_nodes());

  // Batching only serves kAuto polls: an explicitly requested algorithm is
  // honored exactly by grounding each member and running the per-member
  // path (which validates the request against each instance).
  const bool batching = options_.enable_template_batching &&
                        options.algorithm == DcSatAlgorithm::kAuto;

  // The caller's explicit budget wins over the monitor's default and
  // applies to every entry; the monitor *default* only covers entries the
  // analyzer could not place in a proven-PTIME class — budgeting a
  // polynomial check risks nothing but spurious kUndecided verdicts. Each
  // check then runs under its budget scaled by the escalation factor
  // (undecided verdicts earn a larger retry budget).
  auto base_budget_for = [&](const AnalysisReport& report) -> BudgetLimits {
    if (!options.budget.unlimited()) return options.budget;
    switch (report.tractability) {
      case TractabilityClass::kTriviallyUnsat:
      case TractabilityClass::kPtimeFdOnly:
      case TractabilityClass::kPtimeIndOnly:
        return BudgetLimits{};
      case TractabilityClass::kTriviallyViolated:
      case TractabilityClass::kCoNpMixed:
        break;
    }
    return options_.budget;
  };

  // Dirtiness is a class-level fact (the footprint is binding-independent),
  // so it is decided once per class, not once per member.
  std::vector<char> class_dirty(classes_.size(), 0);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    class_dirty[c] = ClassIsDirty(classes_[c]) ? 1 : 0;
  }

  std::vector<std::size_t> to_evaluate;
  for (std::size_t slot = 0; slot < entries_.size(); ++slot) {
    Entry& entry = entries_[slot];
    if (entry.removed) continue;
    const bool dirty = entry.verdict == Verdict::kUnknown ||
                       class_dirty[entry.class_id] != 0;
    if (entry.verdict == Verdict::kUndecided) {
      // Unfinished business: retried even with no mutations — unless it is
      // backing off, and then only while the instance has not changed under
      // it (a genuinely dirty entry re-checks immediately).
      if (entry.backoff_remaining > 0 && !dirty) {
        --entry.backoff_remaining;
        ++poll_stats_.backoff_skips;
        continue;
      }
      to_evaluate.push_back(slot);
    } else if (dirty) {
      to_evaluate.push_back(slot);
    } else {
      ++poll_stats_.constraints_skipped;
    }
  }

  // Group the selected members into evaluation tasks: one shared task per
  // batch-admitted class (however many members), one task per remaining
  // member. `items` are indices into to_evaluate.
  //
  // The worker lambda below runs on pool threads while this thread keeps
  // the monitor lock held, so workers must never touch the guarded tables
  // directly. Each task therefore carries an immutable view — pointers to
  // the class's compiled query/equalities/binding cache (stable: nothing
  // mutates classes_/entries_ until every worker has joined) plus its
  // output slots — all resolved here under the lock.
  struct PollTask {
    bool batch = false;
    std::size_t class_id = 0;
    std::vector<std::size_t> items;
    // Batch tasks: the resolved batch inputs. `index` is non-null iff the
    // task evaluates through the class's cached binding list + dedup index
    // (full live membership — the steady state) instead of a fresh gather
    // (see TemplateClass::cached_bindings).
    const CompiledQuery* compiled = nullptr;
    const std::vector<EqualityConstraint>* equalities = nullptr;
    const std::vector<Tuple>* bindings = nullptr;
    const TemplateBindingIndex* index = nullptr;
    std::vector<Tuple> gathered_bindings;  // Backing store when not cached.
    std::vector<std::size_t> slots;  // Verdict slot per batch outcome.
    // Single tasks: the entry to evaluate and its verdict slot.
    const Entry* entry = nullptr;
    std::size_t slot = 0;
  };
  std::vector<PollTask> tasks;
  std::map<std::size_t, std::size_t> batch_task_of;
  for (std::size_t i = 0; i < to_evaluate.size(); ++i) {
    const Entry& entry = entries_[to_evaluate[i]];
    const TemplateClass& cls = classes_[entry.class_id];
    if (batching && cls.batchable) {
      auto [it, inserted] = batch_task_of.emplace(entry.class_id, tasks.size());
      if (inserted) {
        tasks.push_back(
            PollTask{.batch = true, .class_id = entry.class_id, .items = {}});
      }
      tasks[it->second].items.push_back(i);
    } else {
      tasks.push_back(
          PollTask{.batch = false, .class_id = entry.class_id, .items = {i}});
    }
  }

  // Compile (and, for members falling back to per-member evaluation,
  // ground) everything that will run, and resolve each task's immutable
  // worker view. Batch classes compile the generalized query once per
  // database version; singles keep their own per-version compiled form.
  const std::uint64_t version = db_->version();
  for (PollTask& task : tasks) {
    if (task.batch) {
      TemplateClass& cls = classes_[task.class_id];
      // The binding cache serves full-membership selections only — the
      // steady state. A strict subset (some members backing off) keeps the
      // cache intact for later polls but evaluates off a fresh gather.
      if (task.items.size() == cls.live_members) {
        if (cls.cached_members_version != cls.members_version) {
          cls.cached_bindings.clear();
          cls.cached_slots.clear();
          cls.cached_bindings.reserve(cls.live_members);
          cls.cached_slots.reserve(cls.live_members);
          for (std::size_t slot : cls.members) {
            const Entry& member = entries_[slot];
            if (member.removed) continue;
            cls.cached_bindings.push_back(member.binding);
            cls.cached_slots.push_back(slot);
          }
          cls.cached_index = TemplateBindingIndex::Build(cls.cached_bindings);
          cls.cached_members_version = cls.members_version;
        }
        task.bindings = &cls.cached_bindings;
        task.index = &cls.cached_index;
        task.slots = cls.cached_slots;
      } else {
        task.gathered_bindings.reserve(task.items.size());
        task.slots.reserve(task.items.size());
        for (std::size_t i : task.items) {
          task.gathered_bindings.push_back(entries_[to_evaluate[i]].binding);
          task.slots.push_back(to_evaluate[i]);
        }
        task.bindings = &task.gathered_bindings;
      }
      task.equalities = &cls.template_equalities;
      if (cls.compiled.has_value() && cls.compiled_version == version) {
        ++poll_stats_.compile_cache_hits;
      } else {
        StatusOr<CompiledQuery> compiled =
            CompiledQuery::Compile(cls.generalized, &db_->database());
        if (!compiled.ok()) return compiled.status();
        cls.compiled = std::move(*compiled);
        cls.compiled_version = version;
        ++poll_stats_.compile_cache_misses;
      }
      task.compiled = &*cls.compiled;
    } else {
      Entry& entry = entries_[to_evaluate[task.items[0]]];
      if (!entry.q.has_value()) {
        // A batch member of a batchable class, selected while an explicit
        // algorithm is in force: materialize its grounded form now.
        BCDB_RETURN_IF_ERROR(GroundEntry(entry));
      }
      if (entry.compiled.has_value() && entry.compiled_version == version) {
        ++poll_stats_.compile_cache_hits;
      } else {
        StatusOr<CompiledQuery> compiled =
            CompiledQuery::Compile(*entry.q, &db_->database());
        if (!compiled.ok()) return compiled.status();
        entry.compiled = std::move(*compiled);
        entry.compiled_version = version;
        ++poll_stats_.compile_cache_misses;
      }
      task.entry = &entry;
      task.slot = to_evaluate[task.items[0]];
    }
  }

  // Per-task check options: serial (num_threads = 1 — with several standing
  // classes the class-level fan-out already saturates the workers, and the
  // engine's component pool is not re-entrant), with the escalated budget.
  // A batch task shares one budget across the class, scaled by the largest
  // participating member's escalation factor.
  std::vector<DcSatOptions> task_options(tasks.size(), options);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    task_options[t].num_threads = 1;
    double scale = 1.0;
    const AnalysisReport* report;
    if (tasks[t].batch) {
      report = &classes_[tasks[t].class_id].report;
      for (std::size_t i : tasks[t].items) {
        scale = std::max(scale, entries_[to_evaluate[i]].budget_scale);
      }
    } else {
      const Entry& entry = entries_[to_evaluate[tasks[t].items[0]]];
      report = &*entry.report;
      scale = entry.budget_scale;
    }
    const BudgetLimits base_budget = base_budget_for(*report);
    task_options[t].budget =
        scale > 1.0 ? base_budget.Scaled(scale) : base_budget;
  }

  // Phase 2: evaluate every task over the shared read-only snapshot. The
  // pool is sized once to the requested width and reused across polls —
  // only the number of submitted tasks tracks the dirty count, which
  // fluctuates every poll in steady state.
  // Verdicts are keyed by entry slot: a cached batch task reports outcomes
  // in its cached member order, which is a permutation of its selected
  // items — slot indexing makes the two meet without a per-poll remap.
  std::vector<Verdict> verdicts(entries_.size(), Verdict::kUnknown);
  std::vector<Status> statuses(tasks.size());
  // Workers read only the task's resolved view (plus the locals above and
  // the engine) — never the guarded tables, which stay under the monitor
  // lock this thread holds until the join below.
  auto run_task = [&](std::size_t t) {
    const PollTask& task = tasks[t];
    if (task.batch) {
      StatusOr<TemplateBatchResult> result =
          task.index != nullptr
              ? engine_.CheckTemplateBatch(*task.compiled, *task.equalities,
                                           *task.bindings, *task.index,
                                           task_options[t])
              : engine_.CheckTemplateBatch(*task.compiled, *task.equalities,
                                           *task.bindings, task_options[t]);
      if (!result.ok()) {
        statuses[t] = result.status();
        return;
      }
      for (std::size_t j = 0; j < task.slots.size(); ++j) {
        verdicts[task.slots[j]] = FromOutcome(result->outcomes[j]);
      }
    } else {
      StatusOr<Verdict> verdict = EvaluateEntry(*task.entry, task_options[t]);
      if (verdict.ok()) {
        verdicts[task.slot] = *verdict;
      } else {
        statuses[t] = verdict.status();
      }
    }
  };
  const std::size_t pool_width =
      ThreadPool::EffectiveThreads(options.num_threads);
  const std::size_t num_workers =
      tasks.empty() ? 1 : std::min(pool_width, tasks.size());
  if (num_workers > 1) {
    if (pool_ == nullptr || pool_->num_threads() != pool_width) {
      pool_ = std::make_shared<ThreadPool>(pool_width);
    }
    std::vector<std::future<void>> futures;
    futures.reserve(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      futures.push_back(pool_->Submit([&run_task, t] { run_task(t); }));
    }
    // Join every future before an exception can propagate: rethrowing from
    // the first get() while sibling tasks still reference the stack-local
    // verdicts/statuses vectors would be use-after-scope UB.
    std::exception_ptr first_error;
    for (std::future<void>& future : futures) {
      try {
        future.get();
      } catch (...) {
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
    if (first_error != nullptr) std::rethrow_exception(first_error);
    poll_stats_.threads_used = pool_->num_threads();
    poll_stats_.constraints_parallel += to_evaluate.size();
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) run_task(t);
    poll_stats_.threads_used = 1;
  }

  // Phase 3 (single-threaded): every status is checked before any verdict
  // commits. Committing the leading entries and then erroring out would
  // swallow their transitions forever — the next poll sees the verdict
  // already updated and reports no Change. On error nothing commits and
  // the dirty set is retained, so the next poll re-runs everything.
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  for (const PollTask& task : tasks) {
    if (!task.batch) continue;
    ++poll_stats_.classes_evaluated;
    poll_stats_.constraints_batched += task.items.size();
  }
  std::vector<Change> changes;
  for (std::size_t i = 0; i < to_evaluate.size(); ++i) {
    Entry& entry = entries_[to_evaluate[i]];
    ++poll_stats_.constraints_evaluated;
    const Verdict verdict = verdicts[to_evaluate[i]];
    if (verdict == Verdict::kUndecided) {
      ++poll_stats_.undecided_verdicts;
      ++entry.undecided_streak;
      if (options_.budget_growth > 1.0 &&
          entry.budget_scale < options_.max_budget_scale) {
        entry.budget_scale = std::min(
            entry.budget_scale * options_.budget_growth,
            options_.max_budget_scale);
        ++poll_stats_.budget_escalations;
      }
      // First retry is immediate (with the larger budget); repeat
      // offenders back off exponentially, capped.
      entry.backoff_remaining =
          entry.undecided_streak >= 2
              ? std::min<std::size_t>(
                    std::size_t{1}
                        << std::min<std::size_t>(entry.undecided_streak - 2,
                                                 20),
                    options_.max_backoff_polls)
              : 0;
    } else {
      entry.undecided_streak = 0;
      entry.budget_scale = 1.0;
      entry.backoff_remaining = 0;
    }
    if (verdict != entry.verdict) {
      changes.push_back(Change{MonitorHandle(to_evaluate[i], uid_),
                               entry.label, entry.verdict, verdict,
                               classes_[entry.class_id].label,
                               BindingSummary(entry.binding)});
      entry.verdict = verdict;
    }
  }
  if (options_.dirty_tracking) {
    dirty_relations_.Clear();
    mutated_since_poll_ = false;
  }
  return changes;
}

}  // namespace bcdb
