#ifndef BCDB_CORE_MONITOR_H_
#define BCDB_CORE_MONITOR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dcsat.h"
#include "query/ast.h"
#include "query/template.h"
#include "relational/tuple.h"
#include "util/bitset.h"
#include "util/flat_table.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace bcdb {

/// Opaque typed handle to a standing constraint of a ConstraintMonitor.
/// Default-constructed handles are invalid; valid handles come only from
/// ConstraintMonitor::Add / Bind and stay stable for the monitor's lifetime —
/// Remove tombstones the slot, it is never reused for a later registration.
///
/// Handles carry the identity of the monitor that minted them: a handle
/// presented to a *different* monitor is rejected (and compares unequal to
/// that monitor's own handles) even when the slot indices collide, so the
/// classic mix-up — two monitors, both with an entry #3 — is caught instead
/// of silently reading the wrong constraint.
class MonitorHandle {
 public:
  /// An invalid handle (valid() == false).
  MonitorHandle() = default;

  bool valid() const { return index_ != kInvalid; }
  /// The underlying slot index; meaningful only when valid().
  std::size_t value() const { return index_; }

  friend bool operator==(MonitorHandle a, MonitorHandle b) {
    return a.index_ == b.index_ && a.owner_ == b.owner_;
  }
  friend bool operator!=(MonitorHandle a, MonitorHandle b) { return !(a == b); }

 private:
  friend class ConstraintMonitor;
  MonitorHandle(std::size_t index, std::uint64_t owner)
      : index_(index), owner_(owner) {}

  static constexpr std::size_t kInvalid = ~std::size_t{0};
  std::size_t index_ = kInvalid;
  std::uint64_t owner_ = 0;  // Minting monitor's uid; 0 = none.
};

/// Opaque typed handle to a registered constraint template (a *class* of
/// standing constraints). Same identity rules as MonitorHandle: owned by the
/// monitor that minted it, rejected elsewhere. Template classes are never
/// removed; the handle stays valid for the monitor's lifetime.
class TemplateHandle {
 public:
  TemplateHandle() = default;

  bool valid() const { return index_ != kInvalid; }
  std::size_t value() const { return index_; }

  friend bool operator==(TemplateHandle a, TemplateHandle b) {
    return a.index_ == b.index_ && a.owner_ == b.owner_;
  }
  friend bool operator!=(TemplateHandle a, TemplateHandle b) {
    return !(a == b);
  }

 private:
  friend class ConstraintMonitor;
  TemplateHandle(std::size_t index, std::uint64_t owner)
      : index_(index), owner_(owner) {}

  static constexpr std::size_t kInvalid = ~std::size_t{0};
  std::size_t index_ = kInvalid;
  std::uint64_t owner_ = 0;
};

struct MonitorOptions {
  /// Default per-constraint check budget applied by Poll whenever the
  /// caller's DcSatOptions leaves its own budget unlimited. With both
  /// unlimited (the default), checks run to completion exactly as before;
  /// with limits set, a check that cannot finish yields Verdict::kUndecided
  /// instead of stalling the poll (DCSat is CoNP-complete, so adversarial
  /// mempool shapes otherwise make one constraint blow up every Poll).
  /// Entries the static analyzer places in a proven-PTIME class
  /// (kPtimeFdOnly / kPtimeIndOnly / kTriviallyUnsat) are exempt from this
  /// *default* — their checks are polynomial, budgeting them only risks
  /// spurious kUndecided verdicts — while a budget set explicitly on the
  /// Poll call still applies to every entry. An entry that stays
  /// undecided is retried on a fixed schedule (ConstraintMonitor's
  /// kBudgetGrowth, kMaxBudgetScale and kMaxBackoffPolls).
  BudgetLimits budget;
};

/// Tracks standing denial constraints over one blockchain database and
/// reports verdict *transitions* as the database evolves (new pending
/// transactions, blocks applying, evictions) — the library form of a node
/// operator's dashboard: every bad outcome is, at any moment, either
/// already on the chain, still possible in some future, or impossible in
/// every future.
///
/// Registration is organized around *constraint templates*: a template is a
/// constraint with named constant placeholders (`$addr`, `$limit`, ...), and
/// each RegisterTemplate + Bind pair registers one ground member of that
/// class. Plain Add still accepts ground constraints and internally
/// canonicalizes them — constants are extracted into a binding and the
/// constant-free skeleton is hashed, so a million near-identical Adds
/// collapse onto one class. What members of a class share is its compiled
/// *class plan*: the template compiled once at registration, with each
/// parameter a slot the member's binding fills (CompiledQuery). A member is
/// nothing but its class and its binding: every probe and search runs on
/// the class plan, so no member ever compiles or analyzes its own query.
///
/// Poll decides every member with the same routine, over a read-only
/// snapshot: the engine's steady-state caches are refreshed once
/// (single-threaded, incrementally from the mutation log when possible),
/// and only *dirty* members are re-evaluated. Dirtiness comes from the
/// monitor's own cursor into the database's mutation log: Poll reads the
/// events since the previous poll and marks the relations they touched
/// (plus those of transactions whose validity flipped); a class is dirty
/// when its IND-closed footprint meets a marked relation, or — for a class
/// not proved monotone, which any mutation may flip — when any event
/// arrived at all. A cursor the log has trimmed past (more than
/// MutationLog::kDefaultCapacity events between polls) makes every class
/// dirty. The marks persist until a poll commits. Dirty members are then
/// decided by:
///   1. a "happened" probe: the class plan over R with the member's binding;
///   2. for monotone classes, the pre-check probe over R ∪ T (false there
///      means impossible in every world);
///   3. only if neither settles it, the member's own search:
///      DcSatEngine::CheckPrepared on the class plan with the member's
///      binding and its own budget, routed on the class the instantiated
///      constraint would get (DcSatEngine::Classify, which compiles
///      nothing).
/// A projectable class with more distinct bindings than the relation its
/// generalized plan starts from has stored tuples runs steps 1 and 2 set at
/// a time instead: one answer enumeration over R and one over R ∪ T. The
/// probes and the searches each fan out with ParallelFor: every poll starts
/// its threads and joins them before its next phase, so a monitor between
/// polls holds no threads.
///
/// Thread safety: every public method serializes on one internal lock
/// (LockRank::kMonitor), so concurrent Poll calls, registrations, and
/// accessor reads (verdict/label/poll_stats) are safe — an accessor racing
/// a Poll observes either the pre-poll or the committed post-poll state,
/// never a torn one. The fan-out inside Poll hands each thread an
/// immutable per-task view resolved under the lock, which the poll thread
/// keeps held until every thread of the fan-out has joined.
class ConstraintMonitor {
 public:
  enum class Verdict {
    kUnknown,     // Not yet polled (or the handle is invalid/removed).
    kHappened,    // q is true over the current state R itself.
    kPossible,    // q holds in some possible world (DCSat: not satisfied).
    kImpossible,  // q holds in no possible world (DCSat: satisfied).
    kUndecided,   // The check's budget expired before the answer settled;
                  // later polls retry with an escalating budget.
  };

  static const char* VerdictToString(Verdict verdict);

  struct Change {
    MonitorHandle handle;
    std::string label;
    Verdict before;
    Verdict after;
    /// Label of the template class the entry belongs to (the canonical
    /// skeleton for classes Add created implicitly) — a stable aggregation
    /// key: dashboards fold a million per-member changes into per-class
    /// rows without re-deriving the grouping.
    std::string template_label;
    /// Display form of the member's parameter binding, e.g. "(42, 'a1b2')";
    /// "()" for parameterless constraints.
    std::string binding_summary;
  };

  /// Cumulative counters for the steady-state behaviour of Poll.
  struct PollStats {
    std::size_t polls = 0;
    /// Always 0: a poll compiles nothing, since every search runs on its
    /// class plan. Kept because perfbench reads `compile_cache_misses`
    /// (`monitor.compile_misses_per_poll`); ROADMAP's perfbench v2 item
    /// renames or removes both.
    std::size_t compile_cache_hits = 0;
    std::size_t compile_cache_misses = 0;
    std::size_t searches = 0;  // Members neither probe settled.
    std::size_t constraints_evaluated = 0;  // Entries re-checked successfully.
    std::size_t constraints_skipped = 0;    // Entries clean — verdict kept.
    std::size_t threads_used = 1;  // Last poll's requested fan-out width.
    std::size_t constraints_parallel = 0;  // Entries of polls that fanned out.
    std::size_t undecided_verdicts = 0;  // Checks whose budget expired.
    std::size_t budget_escalations = 0;  // Retries granted a larger budget.
    std::size_t backoff_skips = 0;  // Undecided entries sat out (backoff).
    std::size_t classes_evaluated = 0;  // Projectable classes evaluated.
    std::size_t constraints_batched = 0;  // Their members evaluated.
  };

  /// `db` must outlive the monitor. The monitor's mutation-log cursor
  /// starts at the log's end: the first poll evaluates every member anyway.
  explicit ConstraintMonitor(BlockchainDatabase* db,
                             MonitorOptions options = {});

  ConstraintMonitor(const ConstraintMonitor&) = delete;
  ConstraintMonitor& operator=(const ConstraintMonitor&) = delete;

  /// Registers a standing constraint; returns its handle. Registration-time
  /// rejection is the contract: the static analyzer runs here, and any
  /// error-severity diagnostic (unknown relation, arity mismatch, unsafe
  /// variable, ...) fails the Add with the full diagnostic summary — a
  /// malformed constraint never reaches Poll. The report is not kept: the
  /// entry reports its class's analysis (see analysis()).
  ///
  /// Internally the constraint is canonicalized: every constant is
  /// extracted into a parameter binding and the constant-free skeleton
  /// (plus IND-closed footprint) keys a template class, so structurally
  /// identical Adds share one class and its compiled plan.
  StatusOr<MonitorHandle> Add(std::string label, DenialConstraint q);

  /// Convenience overload: parses `query_text` first, so callers with
  /// textual constraints skip the parse boilerplate.
  StatusOr<MonitorHandle> Add(std::string label, std::string_view query_text);

  /// Registers a constraint template — a constraint with `$name` constant
  /// placeholders — as a new class and compiles its class plan. The
  /// template analyzer runs here: binding-independent errors (unknown
  /// relation, arity mismatch, unsafe variable, ...) fail the registration.
  /// A class the analysis proves projectable (Boolean, non-aggregate,
  /// positive, every parameter in some positive atom) also gets the
  /// generalized plan its set-at-a-time answer passes run.
  /// Each call creates a distinct class, even for an identical template —
  /// the label names the class in Change records and introspection.
  StatusOr<TemplateHandle> RegisterTemplate(std::string label,
                                            ConstraintTemplate tmpl);

  /// Convenience overload: parses `template_text` (placeholder syntax
  /// `$name`) first.
  StatusOr<TemplateHandle> RegisterTemplate(std::string label,
                                            std::string_view template_text);

  /// Binds one member of a template class: `binding[i]` substitutes the
  /// template's `param_names()[i]`. The member behaves exactly like an Add
  /// of the instantiated constraint — own handle, own verdict, own Change
  /// records — and, like it, is probed and searched through the class
  /// plan. Fails with InvalidArgument on a handle from
  /// another monitor, a binding of the wrong arity, or binding values whose
  /// types the instantiated constraint would be rejected for
  /// (CompiledQuery::ValidateBinding).
  StatusOr<MonitorHandle> Bind(TemplateHandle tmpl,
                               const std::vector<Value>& binding);

  /// Unregisters a standing constraint (an Add entry or a bound template
  /// member — removing one member leaves its class and siblings untouched).
  /// The slot is tombstoned, never reused: other handles stay valid, size()
  /// drops by one, and the removed handle reports kUnknown / an empty label
  /// from now on. Fails with InvalidArgument when the handle is invalid,
  /// out of range, or minted by a different monitor, and with NotFound when
  /// the entry was already removed.
  Status Remove(MonitorHandle handle);

  /// Number of live (added and not removed) constraints.
  std::size_t size() const BCDB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return live_count_;
  }

  /// Number of template classes (explicitly registered plus those Add
  /// created by canonicalization). Classes are never removed.
  std::size_t num_classes() const BCDB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return classes_.size();
  }

  /// Verdict of `handle` as of the last Poll; kUnknown for invalid,
  /// out-of-range, removed, or never-polled handles. Safe to call while
  /// another thread polls: the snapshot is taken under the monitor lock, so
  /// a caller sees either the pre-poll or the committed post-poll verdict,
  /// never a torn intermediate.
  Verdict verdict(MonitorHandle handle) const BCDB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const Entry* entry = Find(handle);
    return entry != nullptr ? entry->verdict : Verdict::kUnknown;
  }

  /// Label of `handle`; the empty string for invalid, out-of-range, or
  /// removed handles. Bound members are labeled
  /// "<template label>[<binding summary>]". Returned by value: a reference
  /// into the entry table would dangle the moment a concurrent Remove
  /// tombstones the slot.
  std::string label(MonitorHandle handle) const BCDB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const Entry* entry = Find(handle);
    return entry != nullptr ? entry->label : std::string();
  }

  /// The static analysis of the entry's class (classification, footprint,
  /// diagnostics), which holds for every binding (AnalyzeTemplate);
  /// nullptr for invalid or removed handles. The pointer borrows from the
  /// monitor and is valid only until the next registration or removal (the
  /// tables may grow) — the same single-threaded introspection contract as
  /// before; do not cache it across mutating calls.
  const AnalysisReport* analysis(MonitorHandle handle) const
      BCDB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const Entry* entry = Find(handle);
    return entry != nullptr ? &classes_[entry->class_id].report : nullptr;
  }

  /// Label of a template class; empty for foreign/invalid handles.
  std::string template_label(TemplateHandle tmpl) const BCDB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const TemplateClass* cls = FindClass(tmpl);
    return cls != nullptr ? cls->label : std::string();
  }

  /// The class-level analysis a template was admitted under; nullptr for
  /// foreign/invalid handles. Borrows like analysis(): valid until the next
  /// registration.
  const AnalysisReport* template_analysis(TemplateHandle tmpl) const
      BCDB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const TemplateClass* cls = FindClass(tmpl);
    return cls != nullptr ? &cls->report : nullptr;
  }

  /// Whether the class is projectable: it has a generalized plan, so its
  /// probes may run as set-at-a-time answer passes.
  bool template_batchable(TemplateHandle tmpl) const BCDB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const TemplateClass* cls = FindClass(tmpl);
    return cls != nullptr && cls->generalized.has_value();
  }

  /// Re-evaluates the dirty standing constraints against the current
  /// database state and returns the transitions since the previous poll
  /// (first poll reports every constraint as a transition from kUnknown).
  /// `options.num_threads` picks the fan-out width of the probes and the
  /// searches (0 = hardware concurrency, 1 = serial on the calling thread):
  /// each fan-out runs on the calling thread plus up to width - 1 threads it
  /// starts and joins, every thread claiming the next unclaimed task, and
  /// each member's own check scans its components serially on the thread
  /// that claimed it. `options.algorithm` applies to the searches, so an
  /// explicitly requested algorithm is validated only for members that
  /// reach a search; members the probes settle never run it.
  StatusOr<std::vector<Change>> Poll(const DcSatOptions& options = {});

  /// Snapshot of the cumulative poll counters, taken under the monitor
  /// lock. Returned by value: Poll mutates the counters in place, so a
  /// reference would let a caller race a concurrent poll field by field
  /// (the pre-snapshot bug this accessor replaces — counters could be read
  /// half from poll N, half from poll N+1, and tsan flagged the loads).
  PollStats poll_stats() const BCDB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return poll_stats_;
  }
  /// The embedded engine, for steady-state cache introspection. Not
  /// synchronized: read it only while no Poll/Add/Bind is in flight (the
  /// monitor drives every engine call under its own lock, but this escape
  /// hatch hands out the engine without one).
  const DcSatEngine& engine() const { return engine_; }

 private:
  /// Budget escalation: each consecutive undecided verdict multiplies the
  /// entry's next budget by kBudgetGrowth (a later poll retries with more
  /// room), up to kMaxBudgetScale in total. Repeat offenders back off
  /// exponentially: after the k-th consecutive undecided verdict the entry
  /// sits out min(2^(k-2), kMaxBackoffPolls) polls (none after the first —
  /// the first retry is immediate, with a bigger budget) unless a mutation
  /// dirties it, which re-checks at once.
  static constexpr double kBudgetGrowth = 2.0;
  static constexpr double kMaxBudgetScale = 64.0;
  static constexpr std::size_t kMaxBackoffPolls = 8;
  static constexpr std::uint8_t kUnrouted = 0xff;

  /// One template class: the unit of registration, dirty tracking, and plan
  /// sharing. Add-created classes are deduplicated by `class_by_key_`;
  /// RegisterTemplate always creates a fresh class.
  struct TemplateClass {
    std::string label;
    ConstraintTemplate tmpl;
    /// Class-level analysis (AnalyzeTemplate): every fact in it holds for
    /// every binding. Searches do not route on its class, which ignores
    /// the binding's unsat proof.
    AnalysisReport report;
    /// The class plan: the template compiled once, parameters as slots.
    std::optional<CompiledQuery> plan;
    /// Projectable classes only: the generalized plan (parameters projected
    /// into head variables) the set-at-a-time answer passes enumerate.
    std::optional<CompiledQuery> generalized;
    /// The analyzer's IND-closed footprint — the dirty-filter key. A
    /// mutation in R can change the possible worlds of an S-tuple when
    /// S[x] ⊆ R[a] ties them together, so members over S must re-evaluate
    /// on R churn even though the constraint never mentions R.
    std::vector<std::size_t> relation_ids;
    /// Not proved monotone (class-level — monotonicity is structural, so
    /// it holds for every binding): never skipped by the dirty filter, and
    /// never settled by the R ∪ T pre-check probe.
    bool always_dirty = false;
    /// Projectable classes only, maintained by Bind/Add/Remove: each
    /// distinct binding ever bound -> its dense slot (Entry::unique_slot),
    /// the live members per slot, and how many slots have any.
    FlatIdMap<Tuple, std::size_t, TupleHash, TupleEq> unique_of;
    std::vector<std::size_t> live_per_unique;
    std::size_t unique_live = 0;
  };

  /// One standing constraint: a (class, binding) pair.
  struct Entry {
    std::size_t class_id = 0;
    std::string label;
    /// The member's parameter values (interned, template order); empty for
    /// parameterless constraints.
    Tuple binding;
    /// Index of `binding` in the class's unique_of (projectable classes).
    std::size_t unique_slot = 0;
    Verdict verdict = Verdict::kUnknown;
    bool removed = false;
    /// The TractabilityClass the member's searches route on
    /// (DcSatEngine::Classify), cached by its first search; kUnrouted
    /// before it.
    std::uint8_t route = kUnrouted;
    /// Budget escalation state (see kBudgetGrowth): consecutive undecided
    /// verdicts, the cumulative budget multiplier the next check gets, and
    /// how many polls the entry still sits out before being retried.
    std::size_t undecided_streak = 0;
    double budget_scale = 1.0;
    std::size_t backoff_remaining = 0;
  };

  /// The live entry behind `handle`, or nullptr. Handles minted by a
  /// different monitor never resolve, whatever their index.
  const Entry* Find(MonitorHandle handle) const BCDB_REQUIRES(mutex_) {
    if (!handle.valid() || handle.owner_ != uid_ ||
        handle.value() >= entries_.size()) {
      return nullptr;
    }
    const Entry& entry = entries_[handle.value()];
    return entry.removed ? nullptr : &entry;
  }

  /// The class behind `tmpl`, or nullptr (foreign/invalid handles).
  const TemplateClass* FindClass(TemplateHandle tmpl) const
      BCDB_REQUIRES(mutex_) {
    if (!tmpl.valid() || tmpl.owner_ != uid_ ||
        tmpl.value() >= classes_.size()) {
      return nullptr;
    }
    return &classes_[tmpl.value()];
  }

  /// Builds a TemplateClass from an analyzed template and compiles its
  /// plans; returns its id.
  StatusOr<std::size_t> CreateClass(std::string label, ConstraintTemplate tmpl,
                                    TemplateAnalysis analysis)
      BCDB_REQUIRES(mutex_);

  /// Appends a member entry of `class_id`; returns its handle.
  MonitorHandle AppendEntry(Entry entry) BCDB_REQUIRES(mutex_);

  /// The set-at-a-time probes of a projectable class: settles the members
  /// at `slots` (of `entries`) into `verdicts` from one answer enumeration of
  /// the generalized plan over `base` (kHappened) and, when `pending_union`
  /// is non-null, one over it (unanswered: kImpossible). Survivors keep
  /// kUnknown.
  static void SettleByAnswers(const TemplateClass& cls,
                              const std::vector<std::size_t>& slots,
                              const Entry* entries, const WorldView& base,
                              const WorldView* pending_union,
                              std::vector<Verdict>& verdicts);

  /// "(v0, v1, ...)" display form of a binding tuple.
  static std::string BindingSummary(const Tuple& binding);

  /// Whether any of the class's footprint relations was dirtied.
  bool ClassIsDirty(const TemplateClass& cls) const BCDB_REQUIRES(mutex_);

  /// Reads the mutation log from log_cursor_ to its end, folding each
  /// event's relations into dirty_relations_ (all relations when the log
  /// was trimmed past the cursor), and advances the cursor.
  void AbsorbMutations() BCDB_REQUIRES(mutex_);

  /// Folds the relations of transactions whose validity changed since the
  /// previous poll into dirty_relations_ (covers cascade invalidations the
  /// mutation events alone cannot attribute), then snapshots the bits.
  void AbsorbValidityDiff(const DynamicBitset& valid) BCDB_REQUIRES(mutex_);

  /// Marks `relation_id` dirty, growing the bitset on demand.
  void MarkRelationDirty(std::size_t relation_id) BCDB_REQUIRES(mutex_);

  BlockchainDatabase* db_;
  MonitorOptions options_;
  /// Externally synchronized by mutex_: the monitor holds its lock across
  /// every engine call (Poll, Add's Analyze). Not annotated
  /// because the engine() introspection accessor intentionally escapes it.
  DcSatEngine engine_;
  /// This monitor's process-unique identity, stamped into every handle.
  std::uint64_t uid_;
  /// The monitor's one big lock: registration tables, verdicts, dirty
  /// bookkeeping, and the poll machinery all move together (a poll reads
  /// the tables end to end), so finer locks would buy contention windows,
  /// not parallelism — the fan-out inside Poll is where the parallelism is.
  /// Poll holds it across both fan-outs: their threads read the per-task
  /// views it resolved and are joined before it is released.
  mutable Mutex mutex_{LockRank::kMonitor};
  std::vector<TemplateClass> classes_ BCDB_GUARDED_BY(mutex_);
  /// Canonicalization key -> class id, for the classes Add creates. Classes
  /// from RegisterTemplate are intentionally absent: each registration is
  /// its own class, owned by its label.
  std::map<std::string, std::size_t> class_by_key_ BCDB_GUARDED_BY(mutex_);
  std::vector<Entry> entries_ BCDB_GUARDED_BY(mutex_);
  std::size_t live_count_ BCDB_GUARDED_BY(mutex_) = 0;
  /// Seq of the first mutation-log event no poll has read yet.
  std::uint64_t log_cursor_ BCDB_GUARDED_BY(mutex_);
  /// Relations touched by mutations since the last completed poll.
  DynamicBitset dirty_relations_ BCDB_GUARDED_BY(mutex_);
  /// Any mutation event at all since the last completed poll — the dirty
  /// signal for entries whose verdict can shift on unattributable churn
  /// (not proved monotone).
  bool mutated_since_poll_ BCDB_GUARDED_BY(mutex_) = false;
  /// Engine validity bits as of the last poll, for cascade attribution.
  DynamicBitset prev_valid_ BCDB_GUARDED_BY(mutex_);
  PollStats poll_stats_ BCDB_GUARDED_BY(mutex_);
};

}  // namespace bcdb

#endif  // BCDB_CORE_MONITOR_H_
