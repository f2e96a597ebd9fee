#ifndef BCDB_CORE_FD_GRAPH_H_
#define BCDB_CORE_FD_GRAPH_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/blockchain_db.h"
#include "core/bron_kerbosch.h"
#include "relational/tuple.h"
#include "util/bitset.h"
#include "util/flat_table.h"

namespace bcdb {

/// The fd-transaction graph G^fd_T (paper Section 6.1): vertices are pending
/// transactions, with an edge (T, T') iff T ∪ T' satisfies the functional
/// dependencies. Every possible world is a clique of this graph.
///
/// Only the complement is stored: each valid node's sorted conflict list.
/// The graph is complete over the valid nodes minus those pairs, so its
/// memory is O(n + conflicts) and an add touches no n-wide row.
///
/// Construction exploits that FD violations are *binary*: R ∪ T ∪ T' |= I_fd
/// decomposes into (a) R ∪ T |= I_fd per transaction (the `valid_nodes`
/// filter) and (b) T ∪ T' |= I_fd per pair. Pairs are found by hashing every
/// FD's determinant projection across all pending tuples — conflicts are
/// rare in practice, so the graph is "complete minus a few conflict pairs"
/// rather than the result of O(k²) pairwise checks.
///
/// The graph keeps those determinant buckets alive, so it is maintained
/// incrementally under mempool churn (paper Section 6.3): one AddPending /
/// ApplyPending / DiscardPending mutates only the affected node's conflicts
/// and bucket entries, instead of rebuilding everything. The build and the
/// incremental add share one insert routine (ProbeAndBucket), so the
/// maintained state is always bit-identical to a from-scratch build over the
/// same database (the differential tests assert exactly this). Every
/// mutator reports which nodes joined or left the valid set, so callers
/// keep structures keyed on valid nodes (Θ_I buckets) in step without
/// reading the validity bits themselves.
class FdGraph {
 public:
  /// Builds the graph over all still-pending transactions of `db`, with the
  /// per-FD determinant buckets the incremental mutators below maintain
  /// (~one map entry per valid pending tuple).
  explicit FdGraph(const BlockchainDatabase& db);

  /// The valid nodes `v` FD-conflicts with, ascending. Empty for an invalid
  /// node. `v` must be below valid_nodes().size().
  const std::vector<PendingId>& conflicts(PendingId v) const {
    return conflicts_[v];
  }

  /// Every node's conflict list, indexed by pending id — the form
  /// EnumerateMaximalCliques searches.
  const ConflictLists& conflict_lists() const { return conflicts_; }

  /// Whether the edge (u, v) of G^fd_T exists: both valid, distinct and not
  /// conflicting.
  bool Adjacent(PendingId u, PendingId v) const;

  /// valid_nodes[i] = transaction i is still pending, internally consistent
  /// and FD-consistent with the current state (otherwise it can never be
  /// part of any possible world).
  const DynamicBitset& valid_nodes() const { return valid_nodes_; }

  /// Number of conflicting (non-adjacent valid) pairs — the paper's
  /// "contradictions" knob.
  std::size_t num_conflict_pairs() const { return num_conflict_pairs_; }

  // --- Incremental maintenance. -------------------------------------------

  /// Integrates pending transaction `id` (kPendingAdded, or a revalidation):
  /// validity check against the base state, then determinant-bucket probes
  /// that record its conflicts. Cost: O(own tuples + their bucket
  /// entries), vs O(all tuples) for a rebuild. Returns true iff the node
  /// newly joined the valid set — false when it is invalid or was already
  /// integrated.
  bool AddPendingNode(PendingId id);

  /// Removes `id` from the graph (kPendingDiscarded): clears its validity,
  /// conflicts and bucket entries. Other pairwise conflicts are untouched.
  /// Returns whether `id` was valid (and so left the valid set).
  bool RemovePendingNode(PendingId id);

  /// Applies `id` to the current state (kPendingApplied): removes the node
  /// like RemovePendingNode, and — because its tuples joined R — every
  /// still-valid node that FD-conflicted with it becomes inconsistent with
  /// the base state and is invalidated too. Returns the nodes that left the
  /// valid set: none when `id` was not valid, otherwise `id` followed by
  /// its cascade (ascending).
  std::vector<PendingId> ApplyPendingNode(PendingId id);

  /// Integrates a direct base-state insert (kCurrentInserted) of `tuple`
  /// into relation `relation_id`: a valid node whose own tuple shares an FD
  /// determinant with the new base tuple but disagrees on the dependent is
  /// now inconsistent with R. Growing R is anti-monotone for validity —
  /// it can only invalidate, never revalidate — so one determinant-bucket
  /// probe per FD on the relation finds every affected node without
  /// rescanning. Returns the invalidated nodes (ascending, deduplicated).
  std::vector<PendingId> InsertBaseTuple(std::size_t relation_id,
                                         const Tuple& tuple);

  /// Shrinking R (kCurrentRemoved, kPendingRestored) can only revalidate:
  /// re-runs AddPendingNode, in ascending id order, on every still-pending
  /// invalid transaction whose footprint meets `relation_ids` — including
  /// ids the graph has not integrated yet. A node that stays inconsistent
  /// for another reason stays out. Returns the nodes that joined the valid
  /// set (ascending). Cost: O(invalid pending nodes), not O(pending).
  std::vector<PendingId> RevalidateTouching(
      const std::vector<std::size_t>& relation_ids);

 private:
  /// One valid pending tuple in an FD's determinant bucket.
  struct BucketEntry {
    PendingId txn;
    Tuple dependent;
  };
  /// Flat open-addressing determinant table: probed once per pending tuple
  /// on every build and on every incremental add — the hottest map in the
  /// steady-state path.
  using FdBuckets =
      FlatIdMap<Tuple, std::vector<BucketEntry>, TupleHash, TupleEq>;

  /// Clears `id`'s validity bit, conflicts (on both sides) and bucket
  /// entries, keeping num_conflict_pairs_ consistent with the remaining
  /// valid set. Returns whether `id` was valid.
  bool DetachNode(PendingId id);

  /// The one insert routine of the build and the incremental add: inserts
  /// valid node `id`'s determinant projections into the FD buckets,
  /// recording a conflict with every bucket neighbour that has a differing
  /// dependent (once per pair).
  void ProbeAndBucket(PendingId id);

  /// Extends the id space to the database's pending count; ids new to the
  /// graph start out as revalidation candidates.
  void Grow();

  const BlockchainDatabase* db_ = nullptr;
  ConflictLists conflicts_;
  DynamicBitset valid_nodes_;
  /// Revalidation candidates: every still-pending invalid node (ids the
  /// graph has not integrated yet included). Bits of nodes that have since
  /// left the pending set are dropped lazily by RevalidateTouching.
  DynamicBitset invalid_pending_;
  std::size_t num_conflict_pairs_ = 0;

  /// Parallel to db constraints' fds(): determinant projection -> entries.
  std::vector<FdBuckets> fd_buckets_;
  /// Per pending id: the (fd ordinal, determinant key) pairs it bucketed
  /// under, so removal never needs the (possibly dropped) tuples.
  std::vector<std::vector<std::pair<std::size_t, Tuple>>> footprints_;
};

}  // namespace bcdb

#endif  // BCDB_CORE_FD_GRAPH_H_
