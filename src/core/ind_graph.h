#ifndef BCDB_CORE_IND_GRAPH_H_
#define BCDB_CORE_IND_GRAPH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/blockchain_db.h"
#include "query/analysis.h"
#include "relational/tuple.h"
#include "util/bitset.h"
#include "util/flat_table.h"
#include "util/union_find.h"

namespace bcdb {

/// Merges, into `uf` (one element per pending-id slot), the connected
/// components induced by `equalities` over the transactions in `nodes`:
/// two transactions are connected when some equality constraint
/// R[X̄] = S[Ȳ] is satisfied by a tuple pair of theirs.
///
/// Implementation: per constraint, hash the X̄-projections (left side) and
/// Ȳ-projections (right side) of all pending tuples into shared buckets.
/// Within a bucket the constraint-satisfied pairs form a complete bipartite
/// graph between left and right contributors, so if both sides are
/// non-empty the whole bucket collapses into one component — giving exact
/// components without materializing edges (near-linear instead of O(k²)).
///
/// Each constraint costs one pass over every tuple of its two relations, so
/// callers pass only equalities that can change the partition: Θ_q arrives
/// non-redundant from EqualitiesFromQuery, and DcSatEngine::Decompose drops
/// the Θ_q equalities some Θ_I equality Implies before merging the rest
/// onto the Θ_I components. Decompose is the per-check caller, and only on
/// a miss of its decomposition memo: a check whose residual Θ_q shape was
/// decomposed since the last cache refresh reuses that partition.
void MergeEqualityComponents(const BlockchainDatabase& db,
                             const std::vector<EqualityConstraint>& equalities,
                             const DynamicBitset& nodes, UnionFind& uf);

/// A partition of pending transactions into components, stored flat:
/// component i is members[offsets[i], offsets[i + 1]).
struct ComponentList {
  std::vector<PendingId> members;
  std::vector<std::size_t> offsets{0};

  std::size_t size() const { return offsets.size() - 1; }
  std::span<const PendingId> operator[](std::size_t i) const {
    return {members.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

/// Groups the transactions of `nodes` into connected components of the
/// ind-q-transaction graph G^{q,ind}_T, given a union-find prepared by
/// MergeEqualityComponents calls for Θ_I and Θ_q. Components are returned in
/// a canonical order (ascending smallest member, members ascending), so the
/// scan order — and with it the deterministic lowest-violating-component
/// witness — does not depend on union-find history. An incrementally
/// maintained Θ_I therefore yields bit-identical results to a from-scratch
/// one.
ComponentList GroupComponents(const DynamicBitset& nodes, UnionFind& uf);

/// The Θ_I half of the ind-graph components, maintained incrementally
/// (paper Section 6.3). Holds the per-constraint projection buckets of
/// MergeEqualityComponents as live state, so one mempool mutation touches
/// only the affected transaction's entries:
///
/// * AddNode inserts the new transaction's projections through Insert, the
///   one insert routine, which Rebuild also runs for every valid node. A
///   bucket collapses when it first has members on both sides; a later
///   member of a collapsed bucket unions with one member of the other side
///   (unions only — cheap).
/// * RemoveNode deletes its entries; since a union-find cannot split, the
///   caller runs RecomputeUnions once per mutation batch that removed
///   anything — a replay of the retained buckets, skipping the expensive
///   re-projection and re-hashing of every pending tuple.
///
/// The resulting component *partition* is always identical to a fresh
/// MergeEqualityComponents over the same valid set (union order may differ,
/// which GroupComponents' canonical ordering hides).
class EqualityComponents {
 public:
  EqualityComponents() = default;

  /// Full (re)build over the valid `nodes` of `db` with Θ_I `equalities`:
  /// a reset, then Insert for every node under every constraint.
  void Rebuild(const BlockchainDatabase& db,
               std::vector<EqualityConstraint> equalities,
               const DynamicBitset& nodes);

  /// Extends the element space to `db.num_pending()` (new ids start as
  /// singletons). Call for every added pending id, valid or not.
  void GrowTo(std::size_t num_pending);

  /// Inserts valid node `id`'s projections; unions it with the bucket-mates
  /// a shared bucket ties it to.
  void AddNode(PendingId id);

  /// Removes `id`'s projections. The union-find is stale (possibly too
  /// coarse) until RecomputeUnions runs.
  void RemoveNode(PendingId id);

  /// Rebuilds the union-find from the retained buckets.
  void RecomputeUnions();

  /// The Θ_I components; one element per pending-id slot.
  const UnionFind& components() const { return uf_; }

  /// The Θ_I equalities the components are maintained under.
  const std::vector<EqualityConstraint>& equalities() const {
    return equalities_;
  }

 private:
  struct Bucket {
    std::vector<PendingId> lhs_members;
    std::vector<PendingId> rhs_members;
  };
  using Buckets = FlatIdMap<Tuple, Bucket, TupleHash, TupleEq>;
  struct FootprintEntry {
    std::size_t ordinal;  // Index into equalities_.
    bool rhs_side;
    Tuple key;
  };

  /// Inserts node `id`'s projections under equality constraint `ordinal`
  /// into its buckets, with the unions described above.
  void Insert(std::size_t ordinal, PendingId id);

  /// Unions every member of `bucket` into one set (both sides non-empty);
  /// RecomputeUnions replays it over every retained bucket.
  void CollapseBucket(const Bucket& bucket);

  const BlockchainDatabase* db_ = nullptr;
  std::vector<EqualityConstraint> equalities_;
  std::vector<Buckets> buckets_;  // Parallel to equalities_.
  /// Per pending id: where its tuples bucketed, for tuple-free removal.
  std::vector<std::vector<FootprintEntry>> footprints_;
  UnionFind uf_{0};
};

}  // namespace bcdb

#endif  // BCDB_CORE_IND_GRAPH_H_
