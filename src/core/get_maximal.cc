#include "core/get_maximal.h"

#include <cassert>
#include <utility>

namespace bcdb {

namespace {

/// The fixpoint body both entry points share: sweeps `remaining`, appending
/// every candidate `can_append(view, owner)` accepts, until a sweep appends
/// nothing.
template <typename Probe>
void AppendUntilFixpoint(WorldView& view, std::vector<PendingId> remaining,
                         const Probe& can_append, GetMaximalStats* stats) {
  bool progressed = true;
  while (!remaining.empty() && progressed) {
    progressed = false;
    if (stats != nullptr) ++stats->iterations;
    for (std::size_t i = 0; i < remaining.size();) {
      const TupleOwner owner = static_cast<TupleOwner>(remaining[i]);
      if (stats != nullptr) ++stats->probes;
      if (can_append(view, owner)) {
        view.Activate(owner);
        remaining[i] = remaining.back();
        remaining.pop_back();
        progressed = true;
        if (stats != nullptr) ++stats->appended;
      } else {
        ++i;
      }
    }
  }
}

}  // namespace

void BaseAppendability::Reset(std::size_t num_slots) {
  status_ = std::vector<Slot>(num_slots);
}

bool BaseAppendability::Appendable(const BlockchainDatabase& db,
                                   const WorldView& base, PendingId id,
                                   std::size_t* probes) const {
  const std::uint8_t known = status_[id].load();
  if (known != kUnknown) return known == kYes;
  ++*probes;
  const bool appendable =
      db.checker().IndsHoldOnAppend(base, static_cast<TupleOwner>(id));
  status_[id].store(appendable ? kYes : kNo);
  return appendable;
}

WorldView GetMaximal(const BlockchainDatabase& db,
                     const std::vector<PendingId>& candidates,
                     GetMaximalStats* stats) {
  WorldView view = db.BaseView();
  AppendUntilFixpoint(
      view, candidates,
      [&](const WorldView& current, TupleOwner owner) {
        return db.checker().CanAppendOwner(current, owner);
      },
      stats);
  return view;
}

WorldView GetMaximalOfClique(const BlockchainDatabase& db,
                             const FdGraph& graph,
                             const BaseAppendability& appendability,
                             const std::vector<PendingId>& clique,
                             GetMaximalStats* stats) {
#ifndef NDEBUG
  DynamicBitset members(graph.valid_nodes().size());
  for (PendingId id : clique) {
    assert(graph.valid_nodes().Test(id));
    members.Set(id);
  }
  for (PendingId id : clique) {
    for (PendingId other : graph.conflicts(id)) {
      assert(!members.Test(other));
    }
  }
#else
  (void)graph;
#endif
  const WorldView base = db.BaseView();
  WorldView view = base;
  std::vector<PendingId> rest;
  std::size_t fills = 0;
  std::size_t activated = 0;
  for (PendingId id : clique) {
    if (appendability.Appendable(db, base, id, &fills)) {
      view.Activate(static_cast<TupleOwner>(id));
      ++activated;
    } else {
      rest.push_back(id);
    }
  }
  if (stats != nullptr) {
    stats->probes += fills;
    stats->appended += activated;
  }
  AppendUntilFixpoint(
      view, std::move(rest),
      [&](const WorldView& current, TupleOwner owner) {
        return db.checker().IndsHoldOnAppend(current, owner);
      },
      stats);
  return view;
}

}  // namespace bcdb
