#ifndef BCDB_CORE_BLOCKCHAIN_DB_H_
#define BCDB_CORE_BLOCKCHAIN_DB_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "constraints/checker.h"
#include "constraints/constraint.h"
#include "core/mutation_log.h"
#include "core/transaction.h"
#include "relational/database.h"
#include "relational/world_view.h"
#include "util/status.h"

namespace bcdb {

/// What a MutationEvent does not carry but a durable log must: the payload
/// needed to replay the mutation against a recovered database. The
/// base-state kinds need none — their event carries its relation and tuple.
/// The pointer borrows from the database and is valid only for the
/// duration of the Persist call.
struct MutationPayload {
  /// kPendingAdded: the full transaction just registered.
  const Transaction* txn = nullptr;
};

/// Write-ahead hook of the durable storage backend (src/storage). Attached
/// sinks observe every successful mutation synchronously, together with the
/// replay payload. Persist must not mutate the database; errors are latched
/// inside the sink (mutations never fail for durability reasons) and
/// surface through the sink's own status/sync API.
class DurabilitySink {
 public:
  virtual ~DurabilitySink() = default;
  virtual void Persist(const MutationEvent& event,
                       const MutationPayload& payload) = 0;
};

/// The paper's blockchain database D = (R, I, T): a current state R stored
/// in the relational substrate, integrity constraints I with R |= I, and a
/// set T of pending insert transactions that may or may not ever be
/// appended.
///
/// Mutations bump a version counter and append a typed MutationEvent to the
/// mutation log, so that derived steady-state structures (the
/// fd-transaction graph, Θ_I components, per-constraint verdicts) can be
/// maintained incrementally instead of rebuilt from scratch. The log is the
/// only way deltas leave the database: every consumer keeps its own seq
/// cursor and pulls from `mutations()`.
class BlockchainDatabase {
 public:
  /// Lifecycle of a pending-transaction slot. Slots are never reused:
  /// applied and discarded transactions keep their id (and owner tag)
  /// forever, so graphs and bitsets indexed by PendingId stay stable.
  /// kApplied is not terminal — a chain reorg may return the slot to
  /// kPending via UnapplyPending; kDiscarded is.
  enum class PendingState : std::uint8_t {
    kPending = 0,
    kApplied = 1,
    kDiscarded = 2,
  };

  /// Builds an empty database over `catalog` with constraints `I`.
  /// Fails if a constraint references a relation missing from the catalog
  /// (constraints are already resolved, so this only re-checks ids).
  static StatusOr<BlockchainDatabase> Create(Catalog catalog,
                                             ConstraintSet constraints);

  BlockchainDatabase(BlockchainDatabase&&) = default;
  BlockchainDatabase& operator=(BlockchainDatabase&&) = default;

  Database& database() { return *db_; }
  const Database& database() const { return *db_; }
  const ConstraintSet& constraints() const { return *constraints_; }
  const ConstraintChecker& checker() const { return *checker_; }
  const Catalog& catalog() const { return db_->catalog(); }

  /// Inserts a tuple directly into the current state R. The caller is
  /// responsible for R |= I (verify with ValidateCurrentState); bulk loaders
  /// use this to avoid per-tuple constraint checks.
  Status InsertCurrent(std::string_view relation, Tuple tuple);

  /// Retracts a tuple from the current state R (a chain reorg orphaned the
  /// block that carried it). Fails with NotFound unless an equal tuple is
  /// stored with base ownership. The stored tuple itself survives (possibly
  /// unowned and invisible) so TupleIds stay stable; shrinking R can only
  /// *revalidate* pending transactions, never invalidate them.
  Status RemoveCurrent(std::string_view relation, const Tuple& tuple);

  /// Full constraint check of the current state (R |= I must hold for the
  /// possible-worlds semantics to be meaningful).
  Status ValidateCurrentState() const;

  /// Registers `txn` as pending. Tuples become visible only in worlds that
  /// activate the returned id. Fails on schema violations; consistency with
  /// I is *not* required — mutually contradictory pending transactions are
  /// exactly what DCSat reasons about.
  StatusOr<PendingId> AddPending(const Transaction& txn);

  /// Total pending-id slots ever allocated (applied and discarded
  /// transactions keep their slots; use PendingIds() for the live set).
  /// This is the size of the id space every graph/bitset is indexed by.
  std::size_t num_pending() const { return pending_.size(); }
  const Transaction& pending(PendingId id) const { return pending_[id]; }

  /// Distinct relation ids touched by pending transaction `id` (recorded at
  /// AddPending time, so it stays available after apply/discard).
  const std::vector<std::size_t>& PendingRelations(PendingId id) const {
    return pending_relations_[id];
  }

  /// Appends pending transaction `id` permanently to R (it was accepted
  /// into the blockchain). Fails with ConstraintViolation if R ∪ T ⊭ I.
  /// Other pending transactions remain pending; derived caches invalidate.
  Status ApplyPending(PendingId id);

  /// Discards pending transaction `id` (e.g. it became permanently
  /// unappendable and the node evicted it). Its tuples disappear from all
  /// future worlds.
  Status DiscardPending(PendingId id);

  /// The UndoBlock half of a chain reorg: returns applied transaction `id`
  /// to the pending state, moving each of its tuples from base ownership
  /// back to the transaction's owner tag (by content — the inverse of
  /// ApplyPending's promote). Fails with InvalidArgument unless the slot is
  /// kApplied. Caveat (documented in DESIGN.md §15): a tuple the applied
  /// transaction shares with another still-applied source of base ownership
  /// (a second applied transaction carrying the equal tuple, or a direct
  /// InsertCurrent) has a single merged base ownership under set semantics,
  /// so unapplying removes it from R outright. The Bitcoin mapping never
  /// constructs that overlap (txids are unique per relation key).
  Status UnapplyPending(PendingId id);

  /// True if the transaction is still pending (not applied / discarded).
  bool IsPending(PendingId id) const {
    return id < pending_state_.size() &&
           pending_state_[id] == PendingState::kPending;
  }

  /// Lifecycle state of pending slot `id` (which must be < num_pending()).
  PendingState pending_state(PendingId id) const {
    return pending_state_[id];
  }

  /// All currently-pending ids (ascending).
  std::vector<PendingId> PendingIds() const;

  /// PendingIds().size(), counted in place without building the list.
  std::size_t CountPending() const;

  /// World view of the current state R only.
  WorldView BaseView() const { return db_->BaseView(); }
  /// World view of R plus all still-pending transactions (R ∪ T).
  WorldView PendingUnionView() const;

  /// Bumped by every mutation; derived structures cache against it.
  std::uint64_t version() const { return version_; }

  /// The mutation-delta log: one typed event per successful mutation, in
  /// order. Pull-style consumers keep a seq cursor and call
  /// mutations().ReadSince(cursor); a kTrimmed result means the cursor fell
  /// out of the retention window and the consumer must rebuild from scratch
  /// (kForeignCursor flags a cursor that never came from this log).
  const MutationLog& mutations() const { return *mutation_log_; }

  /// Attaches the write-ahead durability sink, which observes every
  /// subsequent mutation (with its replay payload) as it is published. At
  /// most one sink may be attached; pass nullptr to detach.
  void AttachDurabilitySink(DurabilitySink* sink) { durability_sink_ = sink; }
  DurabilitySink* durability_sink() const { return durability_sink_; }

  // ---- Restore hooks (durable storage backend) --------------------------
  // These rebuild a database to match a persisted image without publishing
  // events or bumping the version. Only src/storage recovery should call
  // them, on a freshly created database; relation contents are restored
  // separately through Relation::RestoreTuple.

  /// Appends one pending-transaction slot in its final lifecycle state.
  /// Registers the matching owner tag but does not insert the
  /// transaction's tuples (the segment records carry exact owner lists,
  /// including promoted and dropped states).
  Status RestorePendingSlot(Transaction txn, PendingState state,
                            std::vector<std::size_t> relation_ids);

  /// Overwrites the version counter and positions the (empty) mutation log
  /// at `next_seq`, so post-recovery mutations continue the persisted
  /// version/seq history exactly.
  Status RestoreClock(std::uint64_t version, std::uint64_t next_seq);

 private:
  BlockchainDatabase(Catalog catalog, ConstraintSet constraints);

  /// Appends the event (stamping the post-mutation version) and hands it to
  /// the durability sink (if attached) with its replay payload.
  /// `event_tuple` is the base tuple the event carries (kCurrentInserted /
  /// kCurrentRemoved only; empty otherwise).
  void Publish(MutationKind kind, PendingId id,
               std::vector<std::size_t> relation_ids,
               const MutationPayload& payload = MutationPayload{},
               Tuple event_tuple = Tuple());

  std::unique_ptr<Database> db_;
  std::unique_ptr<ConstraintSet> constraints_;
  std::unique_ptr<ConstraintChecker> checker_;
  std::vector<Transaction> pending_;
  std::vector<PendingState> pending_state_;
  /// Parallel to pending_: distinct relation ids of each transaction.
  std::vector<std::vector<std::size_t>> pending_relations_;
  std::uint64_t version_ = 0;
  std::unique_ptr<MutationLog> mutation_log_;
  /// Non-owning write-ahead hook; nullptr when the database is volatile.
  DurabilitySink* durability_sink_ = nullptr;
};

}  // namespace bcdb

#endif  // BCDB_CORE_BLOCKCHAIN_DB_H_
