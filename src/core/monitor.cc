#include "core/monitor.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "query/compiled_query.h"
#include "query/parser.h"
#include "util/parallel_for.h"

namespace bcdb {

namespace {

/// Process-wide monitor identity source. Handles are stamped with their
/// minting monitor's uid so a handle index colliding across monitors can
/// never resolve against the wrong one.
std::atomic<std::uint64_t> g_monitor_uid BCDB_LOCK_FREE(
    "relaxed fetch_add id mint; uniqueness is all that matters") {1};

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
      engine_(db),
      uid_(g_monitor_uid.fetch_add(1, std::memory_order_relaxed)),
      log_cursor_(db->mutations().end_seq()) {}

void ConstraintMonitor::AbsorbMutations() {
  std::vector<MutationEvent> events;
  const MutationLog& log = db_->mutations();
  if (log.ReadSince(log_cursor_, &events) != MutationLog::ReadResult::kOk) {
    // The log no longer holds every event since the last read, so which
    // relations changed is unknown: every class is dirty.
    for (std::size_t r = 0; r < db_->catalog().num_relations(); ++r) {
      MarkRelationDirty(r);
    }
    mutated_since_poll_ = true;
    log_cursor_ = log.end_seq();
    return;
  }
  for (const MutationEvent& event : events) {
    for (std::size_t relation_id : event.relation_ids) {
      MarkRelationDirty(relation_id);
    }
  }
  if (!events.empty()) {
    // Any event at all (even one with no attributable relations) wakes the
    // classes not proved monotone.
    mutated_since_poll_ = true;
    log_cursor_ = events.back().seq + 1;
  }
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

StatusOr<std::size_t> ConstraintMonitor::CreateClass(
    std::string label, ConstraintTemplate tmpl, TemplateAnalysis analysis) {
  TemplateClass cls;
  // Plans depend only on the query's structure, so each is compiled once
  // here and serves every later poll whatever the database does.
  StatusOr<CompiledQuery> plan =
      CompiledQuery::Compile(tmpl.constraint(), &db_->database());
  if (!plan.ok()) return plan.status();
  cls.plan = std::move(*plan);
  if (analysis.batchable) {
    StatusOr<CompiledQuery> generalized =
        CompiledQuery::Compile(tmpl.Generalized(), &db_->database());
    if (generalized.ok()) cls.generalized = std::move(*generalized);
  }
  cls.label = std::move(label);
  // The dirty filter keys on the analyzer's IND-closed footprint: the
  // relations the constraint references, closed under IND coupling — a
  // mutation in R can change the possible worlds of an S-tuple when
  // S[x] ⊆ R[a] ties them together, so members over S must re-evaluate on
  // R churn even though the constraint never mentions R.
  cls.relation_ids = analysis.report.footprint;
  cls.always_dirty = !analysis.report.analysis.monotone;
  cls.report = std::move(analysis.report);
  cls.tmpl = std::move(tmpl);
  classes_.push_back(std::move(cls));
  return classes_.size() - 1;
}

MonitorHandle ConstraintMonitor::AppendEntry(Entry entry) {
  const std::size_t slot = entries_.size();
  TemplateClass& cls = classes_[entry.class_id];
  if (cls.generalized.has_value()) {
    entry.unique_slot =
        cls.unique_of.try_emplace(entry.binding, cls.unique_of.size())
            .first->second;
    if (entry.unique_slot == cls.live_per_unique.size()) {
      cls.live_per_unique.push_back(0);
    }
    if (cls.live_per_unique[entry.unique_slot]++ == 0) ++cls.unique_live;
  }
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

  // Canonicalize into (template, binding): every constant, the aggregate
  // threshold included, becomes a parameter, and the α-renamed skeleton
  // plus IND-closed footprint keys the class — a million structurally
  // identical Adds land in one class and share its compiled plan. The key
  // is exact because q passed the analyzer above (see ClassKey). The
  // grounded footprint equals the class footprint (relations are
  // binding-independent), so the key can be built without re-running the
  // template analyzer on every Add.
  StatusOr<CanonicalizedConstraint> canon = ConstraintTemplate::Canonicalize(q);
  if (!canon.ok()) return canon.status();
  std::string key = ClassKey(canon->tmpl, report.footprint);

  std::size_t class_id;
  auto it = class_by_key_.find(key);
  if (it != class_by_key_.end()) {
    class_id = it->second;
  } else {
    TemplateAnalysis analysis =
        AnalyzeTemplate(canon->tmpl, db_->database(), db_->constraints());
    std::string class_label = canon->tmpl.CanonicalSkeleton();
    StatusOr<std::size_t> created = CreateClass(
        std::move(class_label), std::move(canon->tmpl), std::move(analysis));
    if (!created.ok()) return created.status();
    class_id = *created;
    class_by_key_.emplace(std::move(key), class_id);
  }

  Entry entry;
  entry.class_id = class_id;
  entry.label = std::move(label);
  entry.binding = Tuple(canon->binding);
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
  StatusOr<std::size_t> class_id =
      CreateClass(std::move(label), std::move(tmpl), std::move(analysis));
  if (!class_id.ok()) return class_id.status();
  return TemplateHandle(*class_id, uid_);
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
  Entry entry;
  entry.class_id = tmpl.value();
  entry.binding = Tuple(binding);
  // The class plan applies the grounded compiler's type rule, so a binding
  // the instantiated constraint would be rejected for fails here, not at
  // its first search.
  BCDB_RETURN_IF_ERROR(cls.plan->ValidateBinding(entry.binding));
  entry.label = cls.label + BindingSummary(entry.binding);
  return AppendEntry(std::move(entry));
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
  TemplateClass& cls = classes_[entry.class_id];
  if (cls.generalized.has_value() &&
      --cls.live_per_unique[entry.unique_slot] == 0) {
    --cls.unique_live;
  }
  --live_count_;
  return Status::OK();
}

bool ConstraintMonitor::ClassIsDirty(const TemplateClass& cls) const {
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

void ConstraintMonitor::SettleByAnswers(const TemplateClass& cls,
                                        const std::vector<std::size_t>& slots,
                                        const Entry* entries,
                                        const WorldView& base,
                                        const WorldView* pending_union,
                                        std::vector<Verdict>& verdicts) {
  // Per distinct binding: not selected, open, answered over R, or answered
  // over R ∪ T. A pass stops once no open binding is left to answer.
  enum : char { kIdle, kOpen, kAnsweredOverBase, kAnsweredOverUnion };
  std::vector<char> state(cls.live_per_unique.size(), kIdle);
  std::size_t open = 0;
  for (std::size_t slot : slots) {
    char& s = state[entries[slot].unique_slot];
    if (s == kIdle) {
      s = kOpen;
      ++open;
    }
  }
  auto answer_pass = [&](const WorldView& view, char answered) {
    if (open == 0) return;
    cls.generalized->EnumerateAnswers(view, [&](const Tuple& answer) {
      auto it = cls.unique_of.find(answer);
      if (it != cls.unique_of.end() && state[it->second] == kOpen) {
        state[it->second] = answered;
        --open;
      }
      return open > 0;
    });
  };
  answer_pass(base, kAnsweredOverBase);
  if (pending_union != nullptr) answer_pass(*pending_union, kAnsweredOverUnion);
  for (std::size_t slot : slots) {
    const char s = state[entries[slot].unique_slot];
    if (s == kAnsweredOverBase) {
      verdicts[slot] = Verdict::kHappened;
    } else if (s == kOpen && pending_union != nullptr) {
      verdicts[slot] = Verdict::kImpossible;
    }
  }
}

StatusOr<std::vector<ConstraintMonitor::Change>> ConstraintMonitor::Poll(
    const DcSatOptions& options) {
  MutexLock lock(mutex_);
  ++poll_stats_.polls;

  // Phase 1 (single-threaded): read the mutation log since the last poll,
  // refresh the engine's steady-state caches (incrementally when the delta
  // path is eligible) and settle the dirty-relation set.
  AbsorbMutations();
  const FdGraph& fd_graph = engine_.PrepareSteadyState();
  AbsorbValidityDiff(fd_graph.valid_nodes());

  // The caller's explicit budget wins over the monitor's default and
  // applies to every entry; the monitor *default* only covers entries the
  // analyzer could not place in a proven-PTIME class — budgeting a
  // polynomial check risks nothing but spurious kUndecided verdicts. Each
  // check then runs under its budget scaled by the escalation factor
  // (undecided verdicts earn a larger retry budget).
  auto base_budget_for = [&](TractabilityClass klass) -> BudgetLimits {
    if (!options.budget.unlimited()) return options.budget;
    switch (klass) {
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

  // Phase 2: settle what the class plans can. One probe task per dirty
  // class — answer passes for a projectable class with more distinct
  // bindings than its generalized plan's driving relation has tuples,
  // member-by-member probes (split into up to `width` tasks) otherwise.
  // Tasks read entries through `entry_table` and classes through task
  // pointers, both resolved here under the lock, which this thread holds
  // until ParallelFor has joined its threads; verdicts are keyed by entry
  // slot, and kUnknown after this phase marks a survivor.
  const WorldView base = db_->BaseView();
  const WorldView pending_union = db_->PendingUnionView();
  const std::size_t width = EffectiveThreads(options.num_threads);
  const Entry* entry_table = entries_.data();
  struct ProbeTask {
    const TemplateClass* cls;
    bool answer_passes;
    std::vector<std::size_t> slots;
  };
  constexpr std::size_t kNoTask = ~std::size_t{0};
  std::vector<ProbeTask> tasks;
  std::vector<std::size_t> task_of(classes_.size(), kNoTask);
  std::size_t classes_batched = 0;
  std::size_t members_batched = 0;
  for (std::size_t slot : to_evaluate) {
    const std::size_t class_id = entries_[slot].class_id;
    const TemplateClass& cls = classes_[class_id];
    if (task_of[class_id] == kNoTask) {
      task_of[class_id] = tasks.size();
      const bool answer_passes =
          cls.generalized.has_value() &&
          cls.unique_live > cls.generalized->driving_tuples();
      tasks.push_back(ProbeTask{&cls, answer_passes, {}});
      if (cls.generalized.has_value()) ++classes_batched;
    }
    tasks[task_of[class_id]].slots.push_back(slot);
    if (cls.generalized.has_value()) ++members_batched;
  }
  for (std::size_t t = 0, n = tasks.size(); t < n; ++t) {
    if (tasks[t].answer_passes) continue;
    const std::size_t chunk = (tasks[t].slots.size() + width - 1) / width;
    while (tasks[t].slots.size() > chunk) {
      std::vector<std::size_t>& slots = tasks[t].slots;
      std::vector<std::size_t> rest(slots.end() - chunk, slots.end());
      slots.resize(slots.size() - chunk);
      tasks.push_back(ProbeTask{tasks[t].cls, false, std::move(rest)});
    }
  }
  std::vector<Verdict> verdicts(entries_.size(), Verdict::kUnknown);
  ParallelFor(tasks.size(), width, [&](std::size_t t) {
    const TemplateClass& cls = *tasks[t].cls;
    const WorldView* precheck =
        options.use_precheck && !cls.always_dirty ? &pending_union : nullptr;
    if (tasks[t].answer_passes) {
      SettleByAnswers(cls, tasks[t].slots, entry_table, base, precheck,
                      verdicts);
      return;
    }
    for (std::size_t slot : tasks[t].slots) {
      const Tuple& binding = entry_table[slot].binding;
      if (cls.plan->Evaluate(base, binding)) {
        verdicts[slot] = Verdict::kHappened;
      } else if (precheck != nullptr &&
                 !cls.plan->Evaluate(*precheck, binding)) {
        verdicts[slot] = Verdict::kImpossible;
      }
    }
  });

  // Phase 3: each survivor's own (serial) search on its class plan with its
  // binding, under its escalated budget. It routes as Check routes the
  // instantiated constraint: the class's structure with the unsat proof of
  // the member's binding, which compiles nothing and is computed once per
  // member.
  std::vector<std::size_t> survivors;
  for (std::size_t slot : to_evaluate) {
    if (verdicts[slot] == Verdict::kUnknown) survivors.push_back(slot);
  }
  const TemplateClass* class_table = classes_.data();
  std::vector<Status> statuses(survivors.size());
  std::vector<TractabilityClass> routes(survivors.size());
  ParallelFor(survivors.size(), width, [&](std::size_t i) {
    const Entry& entry = entry_table[survivors[i]];
    const TemplateClass& cls = class_table[entry.class_id];
    if (entry.route != kUnrouted) {
      routes[i] = static_cast<TractabilityClass>(entry.route);
    } else {
      StatusOr<DenialConstraint> ground =
          cls.tmpl.Instantiate(entry.binding.values());
      if (!ground.ok()) {
        statuses[i] = ground.status();
        return;
      }
      routes[i] = engine_.Classify(*cls.plan, *ground);
    }
    const TractabilityClass klass = routes[i];
    DcSatOptions check = options;
    const BudgetLimits base_budget = base_budget_for(klass);
    check.budget = entry.budget_scale > 1.0
                       ? base_budget.Scaled(entry.budget_scale)
                       : base_budget;
    StatusOr<DcSatResult> result =
        engine_.CheckPrepared(*cls.plan, entry.binding, klass, check);
    if (!result.ok()) {
      statuses[i] = result.status();
    } else if (!result->decided) {
      verdicts[survivors[i]] = Verdict::kUndecided;
    } else {
      verdicts[survivors[i]] =
          result->satisfied ? Verdict::kImpossible : Verdict::kPossible;
    }
  });
  poll_stats_.threads_used = width;
  if (std::min(width, std::max(tasks.size(), survivors.size())) > 1) {
    poll_stats_.constraints_parallel += to_evaluate.size();
  }

  // Phase 4 (single-threaded): every status is checked before any verdict
  // commits. Committing the leading entries and then erroring out would
  // swallow their transitions forever — the next poll sees the verdict
  // already updated and reports no Change. On error nothing commits and
  // the dirty set is retained, so the next poll re-runs everything.
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    entries_[survivors[i]].route = static_cast<std::uint8_t>(routes[i]);
  }
  poll_stats_.searches += survivors.size();
  poll_stats_.classes_evaluated += classes_batched;
  poll_stats_.constraints_batched += members_batched;
  std::vector<Change> changes;
  for (std::size_t slot : to_evaluate) {
    Entry& entry = entries_[slot];
    ++poll_stats_.constraints_evaluated;
    const Verdict verdict = verdicts[slot];
    if (verdict == Verdict::kUndecided) {
      ++poll_stats_.undecided_verdicts;
      ++entry.undecided_streak;
      if (entry.budget_scale < kMaxBudgetScale) {
        entry.budget_scale =
            std::min(entry.budget_scale * kBudgetGrowth, kMaxBudgetScale);
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
                    kMaxBackoffPolls)
              : 0;
    } else {
      entry.undecided_streak = 0;
      entry.budget_scale = 1.0;
      entry.backoff_remaining = 0;
    }
    if (verdict != entry.verdict) {
      changes.push_back(Change{MonitorHandle(slot, uid_),
                               entry.label, entry.verdict, verdict,
                               classes_[entry.class_id].label,
                               BindingSummary(entry.binding)});
      entry.verdict = verdict;
    }
  }
  dirty_relations_.Clear();
  mutated_since_poll_ = false;
  return changes;
}

}  // namespace bcdb
