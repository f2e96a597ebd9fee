#ifndef BCDB_RELATIONAL_RELATION_H_
#define BCDB_RELATIONAL_RELATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/world_view.h"
#include "util/flat_table.h"
#include "util/status.h"

namespace bcdb {

/// Index of a distinct tuple within a relation instance.
using TupleId = std::uint32_t;

/// One stored relation instance with set semantics and owner-tagged tuples.
///
/// The relation stores each distinct tuple once, together with the set of
/// owners (the current state and/or pending transactions) that contribute it.
/// Almost every tuple has exactly one owner, which is stored in the tuple's
/// 4-byte owner cell itself; only a tuple with two or more owners keeps a
/// list on the side.
/// A tuple is visible in a `WorldView` iff at least one of its owners is
/// active. Secondary hash indexes over attribute subsets are built lazily and
/// maintained on insert; index entries reference all distinct tuples, so
/// readers must re-check visibility.
///
/// Not thread-safe: lazy index construction mutates shared state.
class Relation {
 public:
  explicit Relation(const RelationSchema* schema) : schema_(schema) {}

  const RelationSchema& schema() const { return *schema_; }

  /// Inserts `tuple` on behalf of `owner`. Duplicate (tuple, owner) pairs are
  /// ignored; a duplicate tuple from a new owner just extends the owner set.
  /// The tuple must already be schema-valid (Database::Insert validates).
  TupleId Insert(Tuple tuple, TupleOwner owner);

  /// Pre-sizes the tuple store and primary hash table for a bulk load of
  /// `expected_tuples` distinct tuples (rehash churn otherwise dominates
  /// large ingests).
  void Reserve(std::size_t expected_tuples);

  /// Restore hook for the durable storage backend: appends `tuple` with an
  /// explicit owner list — possibly empty, since a tuple whose owners were
  /// all dropped stays stored (and invisible) to keep TupleId assignment
  /// stable. Called in persisted TupleId order on a relation with no
  /// secondary indexes yet, it reproduces the persisted id layout exactly.
  /// Fails (leaving the relation untouched) on schema violations or if an
  /// equal tuple is already stored.
  Status RestoreTuple(Tuple tuple, const std::vector<TupleOwner>& owners);

  /// Number of distinct stored tuples (visible or not, over all owners).
  std::size_t num_tuples() const { return tuples_.size(); }

  const Tuple& tuple(TupleId id) const { return tuples_[id]; }
  /// The tuple's owners in the order they were added (a removal keeps the
  /// order of the rest). Valid until the relation is next mutated.
  std::span<const TupleOwner> owners(TupleId id) const {
    const TupleOwner& cell = owner_cells_[id];
    if (cell >= kBaseOwner) return {&cell, 1};
    if (cell == kNoOwners) return {};
    return overflow_[OverflowSlot(cell)];
  }

  bool IsVisible(TupleId id, const WorldView& view) const {
    const TupleOwner cell = owner_cells_[id];
    if (cell >= kBaseOwner) return view.IsActive(cell);
    for (TupleOwner owner : owners(id)) {
      if (view.IsActive(owner)) return true;
    }
    return false;
  }

  /// True if an equal tuple is stored and visible in `view`.
  bool ContainsVisible(const Tuple& tuple, const WorldView& view) const;
  /// Same, keyed by an id sequence (full arity) — allocation-free.
  bool ContainsVisible(const ProjectionKey& key, const WorldView& view) const;

  /// Number of tuples visible in `view`.
  std::size_t CountVisible(const WorldView& view) const;

  /// Distinct tuples contributed by `owner` (empty for unknown owners).
  const std::vector<TupleId>& TuplesOwnedBy(TupleOwner owner) const;

  /// Transfers ownership of `owner`'s tuples to the base state (the pending
  /// transaction was accepted into the blockchain).
  void PromoteOwner(TupleOwner owner);

  /// Removes `owner` from all its tuples (the pending transaction became
  /// permanently unappendable and was discarded). Tuples left with no owner
  /// become invisible in every view.
  void DropOwner(TupleOwner owner);

  /// Removes `owner` from the stored tuple equal to `tuple`, if both exist.
  /// Returns true when an ownership was actually removed (false: the tuple
  /// is not stored, or `owner` does not own it). The tuple itself stays
  /// stored — possibly with no owners, and therefore invisible in every
  /// view — so TupleId assignment and index entries remain stable; indexes
  /// need no maintenance because readers re-check visibility.
  bool RemoveTupleOwner(const Tuple& tuple, TupleOwner owner);

  /// Moves ownership of the stored tuple equal to `tuple` from the base
  /// state back to `owner` (the inverse of one PromoteOwner step, used when
  /// a chain reorg returns an applied transaction to pending). Returns true
  /// when the base ownership was removed; `owner` gains the tuple either
  /// way (no-op if it already owns it). False when the tuple is not stored
  /// or not base-owned — the caller decides whether that is tolerable (a
  /// transaction listing one tuple twice demotes it once).
  bool DemoteTuple(const Tuple& tuple, TupleOwner owner);

  /// Identifier of the lazily-built hash index over `positions`, which must
  /// be sorted, unique and in range. The same positions always return the
  /// same id.
  std::size_t GetOrBuildIndex(const std::vector<std::size_t>& positions) const;

  /// All tuples (visible or not) whose projection on the index's positions
  /// equals `key`. `key` arity must match the index positions.
  const std::vector<TupleId>& IndexLookup(std::size_t index_id,
                                          const Tuple& key) const;
  /// Same, keyed by a ProjectionKey — the allocation-free lookup path.
  const std::vector<TupleId>& IndexLookup(std::size_t index_id,
                                          const ProjectionKey& key) const;

  /// Invokes `fn(TupleId)` for every tuple visible in `view`.
  template <typename Fn>
  void ForEachVisible(const WorldView& view, Fn&& fn) const {
    for (TupleId id = 0; id < tuples_.size(); ++id) {
      if (IsVisible(id, view)) fn(id);
    }
  }

 private:
  /// Buckets are id-keyed: the Tuple key is a flat ValueId sequence, and the
  /// transparent TupleHash/TupleEq pair lets lookups probe with a
  /// ProjectionKey instead of materializing a projection. The table itself
  /// is a flat open-addressing FlatIdMap — an index probe is a tag scan over
  /// contiguous control bytes, not a bucket-node pointer chase.
  struct HashIndex {
    std::vector<std::size_t> positions;
    FlatIdMap<Tuple, std::vector<TupleId>, TupleHash, TupleEq> buckets;
  };

  /// Owner-cell values below kBaseOwner: a tuple with no owners, and the
  /// first overflow cell. Cell kFirstOverflow − s names overflow_[s].
  static constexpr TupleOwner kNoOwners = -2;
  static constexpr TupleOwner kFirstOverflow = -3;

  static std::size_t OverflowSlot(TupleOwner cell) {
    return static_cast<std::size_t>(kFirstOverflow - cell);
  }

  void AddToIndex(HashIndex& index, TupleId id) const;

  /// The owner cell that stores `owners` (no repeats), taking an overflow
  /// slot when there are two or more.
  TupleOwner MakeOwnerCell(std::span<const TupleOwner> owners);
  /// Appends `owner` to tuple `id`'s owners; false if it already owns it.
  bool AddOwner(TupleId id, TupleOwner owner);
  /// Removes `owner` from tuple `id`'s owners, keeping the order of the
  /// rest; false if it does not own it.
  bool EraseOwner(TupleId id, TupleOwner owner);

  const RelationSchema* schema_;
  std::vector<Tuple> tuples_;
  /// One cell per tuple: its single owner, kNoOwners, or an overflow slot.
  std::vector<TupleOwner> owner_cells_;
  /// Owner lists of the tuples with two or more owners, in the order they
  /// were added; a slot whose tuple drops to one owner is freed for reuse.
  std::vector<std::vector<TupleOwner>> overflow_;
  std::vector<std::size_t> free_overflow_;
  FlatIdMap<Tuple, TupleId, TupleHash, TupleEq> ids_by_tuple_;
  FlatIdMap<TupleOwner, std::vector<TupleId>> tuples_by_owner_;
  mutable std::vector<HashIndex> indexes_;
};

}  // namespace bcdb

#endif  // BCDB_RELATIONAL_RELATION_H_
