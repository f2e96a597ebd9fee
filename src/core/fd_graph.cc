#include "core/fd_graph.h"

#include <algorithm>

namespace bcdb {

FdGraph::FdGraph(const BlockchainDatabase& db)
    : db_(&db),
      conflicts_(db.num_pending()),
      valid_nodes_(db.num_pending()),
      invalid_pending_(db.num_pending()),
      footprints_(db.num_pending()) {
  const ConstraintChecker& checker = db.checker();
  for (PendingId id : db.PendingIds()) {
    if (checker.FdConsistentWithBase(static_cast<TupleOwner>(id))) {
      valid_nodes_.Set(id);
    } else {
      invalid_pending_.Set(id);
    }
  }

  // Cardinality is known up front — one bucket entry per valid pending
  // tuple of the FD's relation; pre-sizing avoids every rehash of the
  // inserts below.
  const std::vector<FunctionalDependency>& fds = db.constraints().fds();
  fd_buckets_.resize(fds.size());
  for (std::size_t ord = 0; ord < fds.size(); ++ord) {
    const Relation& rel = db.database().relation(fds[ord].relation_id());
    std::size_t expected = 0;
    valid_nodes_.ForEach([&](std::size_t id) {
      expected += rel.TuplesOwnedBy(static_cast<TupleOwner>(id)).size();
    });
    fd_buckets_[ord].reserve(expected);
  }
  valid_nodes_.ForEach([&](std::size_t id) { ProbeAndBucket(id); });
}

bool FdGraph::Adjacent(PendingId u, PendingId v) const {
  if (u == v || u >= valid_nodes_.size() || v >= valid_nodes_.size() ||
      !valid_nodes_.Test(u) || !valid_nodes_.Test(v)) {
    return false;
  }
  return !std::binary_search(conflicts_[u].begin(), conflicts_[u].end(), v);
}

void FdGraph::Grow() {
  const std::size_t old_n = valid_nodes_.size();
  const std::size_t n = db_->num_pending();
  if (n <= old_n) return;
  conflicts_.resize(n);
  valid_nodes_.Resize(n);
  invalid_pending_.Resize(n);
  footprints_.resize(n);
  for (PendingId id = old_n; id < n; ++id) invalid_pending_.Set(id);
}

bool FdGraph::AddPendingNode(PendingId id) {
  Grow();
  // Idempotent on an already-integrated node: a second probe would bucket
  // its tuples twice.
  if (id >= valid_nodes_.size() || valid_nodes_.Test(id)) return false;
  if (!db_->IsPending(id)) {
    invalid_pending_.Reset(id);
    return false;
  }
  if (!db_->checker().FdConsistentWithBase(static_cast<TupleOwner>(id))) {
    // Invalid nodes carry no conflicts and no bucket entries — exactly how
    // a from-scratch build treats them.
    invalid_pending_.Set(id);
    return false;
  }
  invalid_pending_.Reset(id);
  valid_nodes_.Set(id);
  ProbeAndBucket(id);
  return true;
}

void FdGraph::ProbeAndBucket(PendingId id) {
  const std::vector<FunctionalDependency>& fds = db_->constraints().fds();
  for (std::size_t ord = 0; ord < fds.size(); ++ord) {
    const FunctionalDependency& fd = fds[ord];
    const Relation& rel = db_->database().relation(fd.relation_id());
    FdBuckets& buckets = fd_buckets_[ord];
    for (TupleId tuple_id : rel.TuplesOwnedBy(static_cast<TupleOwner>(id))) {
      const Tuple& t = rel.tuple(tuple_id);
      Tuple key = t.Project(fd.lhs());
      Tuple dependent = t.Project(fd.rhs());
      std::vector<BucketEntry>& bucket = buckets[key];
      for (const BucketEntry& entry : bucket) {
        if (entry.txn == id || entry.dependent == dependent) continue;
        std::vector<PendingId>& mine = conflicts_[id];
        auto at = std::lower_bound(mine.begin(), mine.end(), entry.txn);
        if (at != mine.end() && *at == entry.txn) continue;  // Known pair.
        mine.insert(at, entry.txn);
        std::vector<PendingId>& theirs = conflicts_[entry.txn];
        theirs.insert(std::lower_bound(theirs.begin(), theirs.end(), id), id);
        ++num_conflict_pairs_;
      }
      footprints_[id].emplace_back(ord, key);
      bucket.push_back(BucketEntry{id, std::move(dependent)});
    }
  }
}

bool FdGraph::DetachNode(PendingId id) {
  if (id >= valid_nodes_.size() || !valid_nodes_.Test(id)) return false;
  num_conflict_pairs_ -= conflicts_[id].size();
  for (PendingId partner : conflicts_[id]) {
    std::vector<PendingId>& theirs = conflicts_[partner];
    theirs.erase(std::lower_bound(theirs.begin(), theirs.end(), id));
  }
  conflicts_[id].clear();
  valid_nodes_.Reset(id);
  for (const auto& [ord, key] : footprints_[id]) {
    auto it = fd_buckets_[ord].find(key);
    if (it == fd_buckets_[ord].end()) continue;  // Earlier duplicate entry.
    std::vector<BucketEntry>& bucket = it->second;
    bucket.erase(std::remove_if(
                     bucket.begin(), bucket.end(),
                     [id](const BucketEntry& e) { return e.txn == id; }),
                 bucket.end());
    if (bucket.empty()) fd_buckets_[ord].erase(it);
  }
  footprints_[id].clear();
  return true;
}

bool FdGraph::RemovePendingNode(PendingId id) {
  // A discarded node never returns, valid or not.
  if (id < invalid_pending_.size()) invalid_pending_.Reset(id);
  return DetachNode(id);
}

std::vector<PendingId> FdGraph::InsertBaseTuple(std::size_t relation_id,
                                                const Tuple& tuple) {
  std::vector<PendingId> invalidated;
  const std::vector<FunctionalDependency>& fds = db_->constraints().fds();
  for (std::size_t ord = 0; ord < fds.size(); ++ord) {
    const FunctionalDependency& fd = fds[ord];
    if (fd.relation_id() != relation_id) continue;
    const Tuple key = tuple.Project(fd.lhs());
    const Tuple dependent = tuple.Project(fd.rhs());
    auto it = fd_buckets_[ord].find(key);
    if (it == fd_buckets_[ord].end()) continue;
    for (const BucketEntry& entry : it->second) {
      if (entry.dependent != dependent) invalidated.push_back(entry.txn);
    }
  }
  std::sort(invalidated.begin(), invalidated.end());
  invalidated.erase(std::unique(invalidated.begin(), invalidated.end()),
                    invalidated.end());
  // Detach after the probes: DetachNode erases bucket entries, which would
  // invalidate the iteration above.
  for (PendingId id : invalidated) {
    DetachNode(id);
    invalid_pending_.Set(id);
  }
  return invalidated;
}

std::vector<PendingId> FdGraph::ApplyPendingNode(PendingId id) {
  if (id < invalid_pending_.size()) invalid_pending_.Reset(id);
  if (id >= valid_nodes_.size() || !valid_nodes_.Test(id)) return {};
  // The applied transaction's tuples joined R, so a still-pending node is
  // base-consistent iff it was and did not conflict with `id`.
  std::vector<PendingId> left{id};
  left.insert(left.end(), conflicts_[id].begin(), conflicts_[id].end());
  for (PendingId node : left) DetachNode(node);
  for (std::size_t i = 1; i < left.size(); ++i) invalid_pending_.Set(left[i]);
  return left;
}

std::vector<PendingId> FdGraph::RevalidateTouching(
    const std::vector<std::size_t>& relation_ids) {
  Grow();
  std::vector<PendingId> joined;
  for (PendingId id = invalid_pending_.FindFirst();
       id < invalid_pending_.size(); id = invalid_pending_.FindNext(id + 1)) {
    if (!db_->IsPending(id)) {
      invalid_pending_.Reset(id);  // Applied or discarded since.
      continue;
    }
    const std::vector<std::size_t>& footprint = db_->PendingRelations(id);
    const bool touches =
        std::any_of(footprint.begin(), footprint.end(), [&](std::size_t rid) {
          return std::find(relation_ids.begin(), relation_ids.end(), rid) !=
                 relation_ids.end();
        });
    if (touches && AddPendingNode(id)) joined.push_back(id);
  }
  return joined;
}

}  // namespace bcdb
