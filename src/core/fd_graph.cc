#include "core/fd_graph.h"

#include <algorithm>

namespace bcdb {

FdGraph::FdGraph(const BlockchainDatabase& db)
    : db_(&db),
      graph_(db.num_pending()),
      valid_nodes_(db.num_pending()),
      footprints_(db.num_pending()) {
  const ConstraintChecker& checker = db.checker();
  for (PendingId id : db.PendingIds()) {
    if (checker.FdConsistentWithBase(static_cast<TupleOwner>(id))) {
      valid_nodes_.Set(id);
    }
  }
  graph_.MakeCompleteOver(valid_nodes_);

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

bool FdGraph::AddPendingNode(PendingId id) {
  const std::size_t n = db_->num_pending();
  graph_.Resize(n);
  valid_nodes_.Resize(n);
  footprints_.resize(n);
  // Idempotent on an already-integrated node: re-running the complete-graph
  // edge pass would resurrect its removed conflict edges, and the bucket
  // probe would then strip them again while incrementing
  // num_conflict_pairs_ a second time.
  if (id < n && valid_nodes_.Test(id)) return false;
  if (!db_->IsPending(id) ||
      !db_->checker().FdConsistentWithBase(static_cast<TupleOwner>(id))) {
    // Invalid nodes carry no edges and no bucket entries — exactly how a
    // from-scratch build treats them.
    return false;
  }
  valid_nodes_.ForEach([&](std::size_t v) {
    if (v != id) graph_.AddEdge(id, v);
  });
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
        if (entry.txn != id && entry.dependent != dependent &&
            graph_.HasEdge(entry.txn, id)) {
          graph_.RemoveEdge(entry.txn, id);
          ++num_conflict_pairs_;
        }
      }
      footprints_[id].emplace_back(ord, key);
      bucket.push_back(BucketEntry{id, std::move(dependent)});
    }
  }
}

bool FdGraph::DetachNode(PendingId id) {
  if (id >= valid_nodes_.size() || !valid_nodes_.Test(id)) return false;
  // Conflicts involving a valid node are exactly its valid non-neighbours:
  // the graph is complete over valid nodes minus the conflict pairs.
  const std::size_t degree = graph_.Neighbors(id).Count();
  num_conflict_pairs_ -= (valid_nodes_.Count() - 1) - degree;
  graph_.IsolateVertex(id);
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

bool FdGraph::RemovePendingNode(PendingId id) { return DetachNode(id); }

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
  for (PendingId id : invalidated) DetachNode(id);
  return invalidated;
}

std::vector<PendingId> FdGraph::ApplyPendingNode(PendingId id) {
  if (id >= valid_nodes_.size() || !valid_nodes_.Test(id)) return {};
  // The applied transaction's tuples joined R, so a still-pending node is
  // base-consistent iff it was and did not conflict with `id` — conflicts
  // are exactly the valid non-neighbours.
  DynamicBitset conflicted = valid_nodes_;
  conflicted -= graph_.Neighbors(id);
  conflicted.Reset(id);
  std::vector<PendingId> left{id};
  conflicted.ForEach([&](std::size_t j) { left.push_back(j); });
  for (PendingId node : left) DetachNode(node);
  return left;
}

std::vector<PendingId> FdGraph::RevalidateTouching(
    const std::vector<std::size_t>& relation_ids) {
  std::vector<PendingId> joined;
  for (PendingId id = 0; id < db_->num_pending(); ++id) {
    if (!db_->IsPending(id) ||
        (id < valid_nodes_.size() && valid_nodes_.Test(id))) {
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
