#include "relational/relation.h"

#include <algorithm>
#include <cassert>

namespace bcdb {

namespace {
const std::vector<TupleId> kEmptyTupleIds;
}  // namespace

void Relation::Reserve(std::size_t expected_tuples) {
  tuples_.reserve(expected_tuples);
  owner_cells_.reserve(expected_tuples);
  ids_by_tuple_.reserve(expected_tuples);
}

TupleId Relation::Insert(Tuple tuple, TupleOwner owner) {
  auto it = ids_by_tuple_.find(tuple);
  if (it != ids_by_tuple_.end()) {
    const TupleId id = it->second;
    if (AddOwner(id, owner)) tuples_by_owner_[owner].push_back(id);
    return id;
  }
  const TupleId id = static_cast<TupleId>(tuples_.size());
  ids_by_tuple_.emplace(tuple, id);
  tuples_.push_back(std::move(tuple));
  owner_cells_.push_back(owner);
  tuples_by_owner_[owner].push_back(id);
  for (HashIndex& index : indexes_) AddToIndex(index, id);
  return id;
}

Status Relation::RestoreTuple(Tuple tuple,
                              const std::vector<TupleOwner>& owners) {
  BCDB_RETURN_IF_ERROR(schema_->ValidateTuple(tuple));
  if (ids_by_tuple_.find(tuple) != ids_by_tuple_.end()) {
    return Status::AlreadyExists("restored tuple already stored in " +
                                 schema_->name());
  }
  for (std::size_t i = 0; i < owners.size(); ++i) {
    if (owners[i] < kBaseOwner) {
      return Status::InvalidArgument("restored tuple has a negative owner");
    }
    for (std::size_t j = i + 1; j < owners.size(); ++j) {
      if (owners[i] == owners[j]) {
        return Status::InvalidArgument("restored tuple repeats an owner");
      }
    }
  }
  const TupleId id = static_cast<TupleId>(tuples_.size());
  ids_by_tuple_.emplace(tuple, id);
  tuples_.push_back(std::move(tuple));
  owner_cells_.push_back(MakeOwnerCell(owners));
  for (TupleOwner owner : owners) tuples_by_owner_[owner].push_back(id);
  for (HashIndex& index : indexes_) AddToIndex(index, id);
  return Status::OK();
}

bool Relation::ContainsVisible(const Tuple& tuple,
                               const WorldView& view) const {
  auto it = ids_by_tuple_.find(tuple);
  return it != ids_by_tuple_.end() && IsVisible(it->second, view);
}

bool Relation::ContainsVisible(const ProjectionKey& key,
                               const WorldView& view) const {
  auto it = ids_by_tuple_.find(key);
  return it != ids_by_tuple_.end() && IsVisible(it->second, view);
}

std::size_t Relation::CountVisible(const WorldView& view) const {
  std::size_t count = 0;
  for (TupleId id = 0; id < tuples_.size(); ++id) {
    if (IsVisible(id, view)) ++count;
  }
  return count;
}

const std::vector<TupleId>& Relation::TuplesOwnedBy(TupleOwner owner) const {
  auto it = tuples_by_owner_.find(owner);
  return it == tuples_by_owner_.end() ? kEmptyTupleIds : it->second;
}

void Relation::PromoteOwner(TupleOwner owner) {
  assert(owner != kBaseOwner);
  auto it = tuples_by_owner_.find(owner);
  if (it == tuples_by_owner_.end()) return;
  // Detach the id list before inserting under kBaseOwner: that insert may
  // rehash and would invalidate both `it` and the list being walked.
  const std::vector<TupleId> ids = std::move(it->second);
  tuples_by_owner_.erase(it);
  for (TupleId id : ids) {
    EraseOwner(id, owner);
    if (AddOwner(id, kBaseOwner)) tuples_by_owner_[kBaseOwner].push_back(id);
  }
}

void Relation::DropOwner(TupleOwner owner) {
  assert(owner != kBaseOwner);
  auto it = tuples_by_owner_.find(owner);
  if (it == tuples_by_owner_.end()) return;
  const std::vector<TupleId> ids = std::move(it->second);
  tuples_by_owner_.erase(it);
  for (TupleId id : ids) EraseOwner(id, owner);
}

bool Relation::RemoveTupleOwner(const Tuple& tuple, TupleOwner owner) {
  auto it = ids_by_tuple_.find(tuple);
  if (it == ids_by_tuple_.end()) return false;
  const TupleId id = it->second;
  if (!EraseOwner(id, owner)) return false;
  auto by_owner = tuples_by_owner_.find(owner);
  if (by_owner != tuples_by_owner_.end()) {
    std::vector<TupleId>& ids = by_owner->second;
    auto id_pos = std::find(ids.begin(), ids.end(), id);
    if (id_pos != ids.end()) {
      // Order within an owner's id list is not meaningful (PromoteOwner /
      // DropOwner walk it as a set), so swap-erase.
      *id_pos = ids.back();
      ids.pop_back();
    }
    if (ids.empty()) tuples_by_owner_.erase(by_owner);
  }
  return true;
}

bool Relation::DemoteTuple(const Tuple& tuple, TupleOwner owner) {
  assert(owner != kBaseOwner);
  if (!RemoveTupleOwner(tuple, kBaseOwner)) return false;
  Insert(tuple, owner);  // Re-attaches `owner`; dedups if already present.
  return true;
}

std::size_t Relation::GetOrBuildIndex(
    const std::vector<std::size_t>& positions) const {
  assert(std::is_sorted(positions.begin(), positions.end()));
  for (std::size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].positions == positions) return i;
  }
  indexes_.push_back(HashIndex{positions, {}});
  HashIndex& index = indexes_.back();
  // Cardinality is known up front: at most one bucket per stored tuple.
  index.buckets.reserve(tuples_.size());
  for (TupleId id = 0; id < tuples_.size(); ++id) AddToIndex(index, id);
  return indexes_.size() - 1;
}

const std::vector<TupleId>& Relation::IndexLookup(std::size_t index_id,
                                                  const Tuple& key) const {
  const HashIndex& index = indexes_[index_id];
  assert(key.arity() == index.positions.size());
  auto it = index.buckets.find(key);
  return it == index.buckets.end() ? kEmptyTupleIds : it->second;
}

const std::vector<TupleId>& Relation::IndexLookup(
    std::size_t index_id, const ProjectionKey& key) const {
  const HashIndex& index = indexes_[index_id];
  assert(key.size() == index.positions.size());
  auto it = index.buckets.find(key);
  return it == index.buckets.end() ? kEmptyTupleIds : it->second;
}

TupleOwner Relation::MakeOwnerCell(std::span<const TupleOwner> owners) {
  if (owners.empty()) return kNoOwners;
  if (owners.size() == 1) return owners.front();
  std::size_t slot = overflow_.size();
  if (free_overflow_.empty()) {
    overflow_.emplace_back();
  } else {
    slot = free_overflow_.back();
    free_overflow_.pop_back();
  }
  overflow_[slot].assign(owners.begin(), owners.end());
  return kFirstOverflow - static_cast<TupleOwner>(slot);
}

bool Relation::AddOwner(TupleId id, TupleOwner owner) {
  TupleOwner& cell = owner_cells_[id];
  if (cell == kNoOwners) {
    cell = owner;
    return true;
  }
  if (cell >= kBaseOwner) {
    if (cell == owner) return false;
    const TupleOwner pair[] = {cell, owner};
    cell = MakeOwnerCell(pair);
    return true;
  }
  std::vector<TupleOwner>& list = overflow_[OverflowSlot(cell)];
  if (std::find(list.begin(), list.end(), owner) != list.end()) return false;
  list.push_back(owner);
  return true;
}

bool Relation::EraseOwner(TupleId id, TupleOwner owner) {
  TupleOwner& cell = owner_cells_[id];
  if (cell >= kBaseOwner) {
    if (cell != owner) return false;
    cell = kNoOwners;
    return true;
  }
  if (cell == kNoOwners) return false;
  const std::size_t slot = OverflowSlot(cell);
  std::vector<TupleOwner>& list = overflow_[slot];
  auto pos = std::find(list.begin(), list.end(), owner);
  if (pos == list.end()) return false;
  list.erase(pos);
  if (list.size() == 1) {
    cell = list.front();
    list.clear();
    free_overflow_.push_back(slot);
  }
  return true;
}

void Relation::AddToIndex(HashIndex& index, TupleId id) const {
  // Probe with the non-allocating view; materialize the owned key only for
  // a bucket's first entry.
  const ProjectionKey key = tuples_[id].ProjectKey(index.positions);
  auto it = index.buckets.find(key);
  if (it == index.buckets.end()) {
    it = index.buckets.emplace(Tuple::FromIds(key), std::vector<TupleId>{})
             .first;
  }
  it->second.push_back(id);
}

}  // namespace bcdb
