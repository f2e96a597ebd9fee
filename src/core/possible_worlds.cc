#include "core/possible_worlds.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "core/get_maximal.h"

namespace bcdb {

namespace {

struct BitsetHash {
  std::size_t operator()(const DynamicBitset& b) const { return b.Hash(); }
};

}  // namespace

bool IsPossibleWorld(const BlockchainDatabase& db,
                     const std::vector<PendingId>& subset) {
  // Checked first: GetMaximal may only see ids of live pending slots.
  for (PendingId id : subset) {
    if (!db.IsPending(id)) return false;
  }
  const WorldView world = GetMaximal(db, subset);
  return std::all_of(subset.begin(), subset.end(), [&](PendingId id) {
    return world.IsActive(static_cast<TupleOwner>(id));
  });
}

StatusOr<std::vector<WorldView>> EnumeratePossibleWorlds(
    const BlockchainDatabase& db, std::size_t limit) {
  PossibleWorldsEnumeration enumeration =
      EnumeratePossibleWorldsWithin(db, limit, /*budget=*/nullptr);
  if (!enumeration.complete) {
    return Status::OutOfRange("possible-world enumeration exceeded limit " +
                              std::to_string(limit));
  }
  return std::move(enumeration.worlds);
}

PossibleWorldsEnumeration EnumeratePossibleWorldsWithin(
    const BlockchainDatabase& db, std::size_t limit, const Budget* budget) {
  const std::vector<PendingId> pending = db.PendingIds();
  PossibleWorldsEnumeration result;
  std::unordered_set<DynamicBitset, BitsetHash> seen;

  std::deque<WorldView> frontier;
  frontier.push_back(db.BaseView());
  seen.insert(frontier.back().active_bits());
  while (!frontier.empty()) {
    if (result.worlds.size() == limit ||
        (budget != nullptr && !budget->ChargeWorld())) {
      result.complete = false;
      return result;
    }
    WorldView view = frontier.front();
    frontier.pop_front();
    result.worlds.push_back(view);
    for (PendingId id : pending) {
      const TupleOwner owner = static_cast<TupleOwner>(id);
      if (view.IsActive(owner)) continue;
      if (!db.checker().CanAppendOwner(view, owner)) continue;
      WorldView next = view;
      next.Activate(owner);
      if (seen.insert(next.active_bits()).second) {
        frontier.push_back(next);
      }
    }
  }
  return result;
}

}  // namespace bcdb
