#include "core/blockchain_db.h"

#include <algorithm>

namespace bcdb {

BlockchainDatabase::BlockchainDatabase(Catalog catalog,
                                       ConstraintSet constraints)
    : db_(std::make_unique<Database>(std::move(catalog))),
      constraints_(std::make_unique<ConstraintSet>(std::move(constraints))),
      checker_(std::make_unique<ConstraintChecker>(db_.get(),
                                                   constraints_.get())),
      mutation_log_(std::make_unique<MutationLog>()) {}

void BlockchainDatabase::Publish(MutationKind kind, PendingId id,
                                 std::vector<std::size_t> relation_ids,
                                 const MutationPayload& payload,
                                 Tuple event_tuple) {
  MutationEvent event;
  event.kind = kind;
  event.seq = mutation_log_->end_seq();  // Append re-stamps identically.
  event.version = version_;
  event.pending_id = id;
  event.relation_ids = std::move(relation_ids);
  event.tuple = std::move(event_tuple);
  mutation_log_->Append(event);
  if (durability_sink_ != nullptr) durability_sink_->Persist(event, payload);
}

StatusOr<BlockchainDatabase> BlockchainDatabase::Create(
    Catalog catalog, ConstraintSet constraints) {
  // Constraints carry resolved relation ids; verify they are in range for
  // this catalog (defends against mixing catalogs).
  for (const FunctionalDependency& fd : constraints.fds()) {
    if (fd.relation_id() >= catalog.num_relations()) {
      return Status::InvalidArgument("FD references unknown relation id");
    }
  }
  for (const InclusionDependency& ind : constraints.inds()) {
    if (ind.lhs_relation_id() >= catalog.num_relations() ||
        ind.rhs_relation_id() >= catalog.num_relations()) {
      return Status::InvalidArgument("IND references unknown relation id");
    }
  }
  return BlockchainDatabase(std::move(catalog), std::move(constraints));
}

Status BlockchainDatabase::InsertCurrent(std::string_view relation,
                                         Tuple tuple) {
  StatusOr<std::size_t> relation_id = db_->RelationId(relation);
  if (!relation_id.ok()) return relation_id.status();
  // The event (and durability sink) carry the tuple after the store has
  // consumed it; an id-array copy is cheap, and incremental engines probe
  // their determinant buckets with it instead of re-reading the store.
  Tuple event_tuple = tuple;
  BCDB_RETURN_IF_ERROR(db_->Insert(*relation_id, std::move(tuple), kBaseOwner));
  ++version_;
  Publish(MutationKind::kCurrentInserted, kNoPendingId,
          std::vector<std::size_t>{*relation_id}, MutationPayload{},
          std::move(event_tuple));
  return Status::OK();
}

Status BlockchainDatabase::RemoveCurrent(std::string_view relation,
                                         const Tuple& tuple) {
  StatusOr<std::size_t> relation_id = db_->RelationId(relation);
  if (!relation_id.ok()) return relation_id.status();
  if (!db_->relation(*relation_id).RemoveTupleOwner(tuple, kBaseOwner)) {
    return Status::NotFound("tuple is not part of the current state of " +
                            std::string(relation));
  }
  ++version_;
  Publish(MutationKind::kCurrentRemoved, kNoPendingId,
          std::vector<std::size_t>{*relation_id}, MutationPayload{}, tuple);
  return Status::OK();
}

Status BlockchainDatabase::ValidateCurrentState() const {
  return checker_->CheckAll(db_->BaseView());
}

StatusOr<PendingId> BlockchainDatabase::AddPending(const Transaction& txn) {
  if (txn.empty()) {
    return Status::InvalidArgument("pending transaction has no tuples");
  }
  // Owners are handed out only here, so owner tags == pending ids; verify
  // the invariant before touching any state, so a failed add leaves the
  // database exactly as it was (a leaked slot would poison every later add:
  // its owner tag would run one ahead of its pending id forever).
  const PendingId id = pending_.size();
  const TupleOwner owner = db_->RegisterOwner();
  if (static_cast<std::size_t>(owner) != id) {
    db_->ReleaseOwner(owner);
    return Status::Internal("pending id / owner tag mismatch");
  }
  for (const Transaction::Item& item : txn.items()) {
    Status status = db_->Insert(item.relation, item.tuple, owner);
    if (!status.ok()) {
      // Roll back the partial insert and reclaim the owner slot (it is the
      // top one — nothing else registers owners). Nothing was published and
      // the version is unchanged: the failed add never happened.
      for (std::size_t r = 0; r < db_->num_relations(); ++r) {
        db_->relation(r).DropOwner(owner);
      }
      db_->ReleaseOwner(owner);
      return status;
    }
  }
  pending_.push_back(txn);
  pending_state_.push_back(PendingState::kPending);
  // Distinct relation ids of the transaction, recorded while the tuples are
  // still resolvable (DiscardPending drops them from the store).
  std::vector<std::size_t> relation_ids;
  for (const Transaction::Item& item : txn.items()) {
    StatusOr<std::size_t> rid = db_->RelationId(item.relation);
    if (rid.ok() && std::find(relation_ids.begin(), relation_ids.end(),
                              *rid) == relation_ids.end()) {
      relation_ids.push_back(*rid);
    }
  }
  pending_relations_.push_back(relation_ids);
  ++version_;
  MutationPayload payload;
  payload.txn = &pending_.back();
  Publish(MutationKind::kPendingAdded, id, std::move(relation_ids), payload);
  return id;
}

Status BlockchainDatabase::ApplyPending(PendingId id) {
  if (!IsPending(id)) {
    return Status::InvalidArgument("transaction is not pending");
  }
  // The append must preserve I over R.
  if (!checker_->CanAppendOwner(db_->BaseView(),
                                static_cast<TupleOwner>(id))) {
    return Status::ConstraintViolation(
        "appending pending transaction " + std::to_string(id) +
        " would violate the integrity constraints");
  }
  // Capture the event's relation set before any tuple teardown: the event
  // must describe the transaction as it was registered, independent of what
  // the promote/drop loops below do to per-relation state. (Teardown does
  // not touch pending_relations_ today, but the capture-then-mutate order
  // is the invariant log consumers rely on, so make it structural.)
  std::vector<std::size_t> event_relations = pending_relations_[id];
  for (std::size_t r = 0; r < db_->num_relations(); ++r) {
    db_->relation(r).PromoteOwner(static_cast<TupleOwner>(id));
  }
  pending_state_[id] = PendingState::kApplied;
  ++version_;
  Publish(MutationKind::kPendingApplied, id, std::move(event_relations));
  return Status::OK();
}

Status BlockchainDatabase::DiscardPending(PendingId id) {
  if (!IsPending(id)) {
    return Status::InvalidArgument("transaction is not pending");
  }
  // As in ApplyPending: snapshot the relation set before teardown drops the
  // transaction's tuples, so the published event always carries the
  // registration-time footprint.
  std::vector<std::size_t> event_relations = pending_relations_[id];
  for (std::size_t r = 0; r < db_->num_relations(); ++r) {
    db_->relation(r).DropOwner(static_cast<TupleOwner>(id));
  }
  pending_state_[id] = PendingState::kDiscarded;
  ++version_;
  Publish(MutationKind::kPendingDiscarded, id, std::move(event_relations));
  return Status::OK();
}

Status BlockchainDatabase::UnapplyPending(PendingId id) {
  if (id >= pending_state_.size() ||
      pending_state_[id] != PendingState::kApplied) {
    return Status::InvalidArgument("transaction is not applied");
  }
  // Demote by content: ApplyPending merged the transaction's tuples into
  // base ownership, so the promoted TupleIds are only recoverable through
  // the stored transaction itself. A duplicate item demotes its tuple once
  // (set semantics); see the header for the shared-base-ownership caveat.
  const TupleOwner owner = static_cast<TupleOwner>(id);
  for (const Transaction::Item& item : pending_[id].items()) {
    StatusOr<std::size_t> rid = db_->RelationId(item.relation);
    if (!rid.ok()) continue;  // Validated at AddPending; defensive.
    db_->relation(*rid).DemoteTuple(item.tuple, owner);
  }
  pending_state_[id] = PendingState::kPending;
  ++version_;
  Publish(MutationKind::kPendingRestored, id, pending_relations_[id]);
  return Status::OK();
}

std::vector<PendingId> BlockchainDatabase::PendingIds() const {
  std::vector<PendingId> ids;
  for (PendingId id = 0; id < pending_.size(); ++id) {
    if (pending_state_[id] == PendingState::kPending) ids.push_back(id);
  }
  return ids;
}

std::size_t BlockchainDatabase::CountPending() const {
  return static_cast<std::size_t>(std::count(
      pending_state_.begin(), pending_state_.end(), PendingState::kPending));
}

Status BlockchainDatabase::RestorePendingSlot(
    Transaction txn, PendingState state,
    std::vector<std::size_t> relation_ids) {
  if (txn.empty()) {
    return Status::InvalidArgument("restored pending transaction is empty");
  }
  for (std::size_t rid : relation_ids) {
    if (rid >= db_->num_relations()) {
      return Status::InvalidArgument(
          "restored pending slot references unknown relation id");
    }
  }
  const PendingId id = pending_.size();
  const TupleOwner owner = db_->RegisterOwner();
  if (static_cast<std::size_t>(owner) != id) {
    db_->ReleaseOwner(owner);
    return Status::Internal("pending id / owner tag mismatch during restore");
  }
  pending_.push_back(std::move(txn));
  pending_state_.push_back(state);
  pending_relations_.push_back(std::move(relation_ids));
  return Status::OK();
}

Status BlockchainDatabase::RestoreClock(std::uint64_t version,
                                        std::uint64_t next_seq) {
  if (version_ != 0 || mutation_log_->end_seq() != 0) {
    return Status::InvalidArgument(
        "RestoreClock requires a database that has never mutated");
  }
  version_ = version;
  mutation_log_->RestoreSeq(next_seq);
  return Status::OK();
}

WorldView BlockchainDatabase::PendingUnionView() const {
  WorldView view = db_->BaseView();
  for (PendingId id = 0; id < pending_state_.size(); ++id) {
    if (pending_state_[id] == PendingState::kPending) {
      view.Activate(static_cast<TupleOwner>(id));
    }
  }
  return view;
}

}  // namespace bcdb
