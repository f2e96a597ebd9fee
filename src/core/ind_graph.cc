#include "core/ind_graph.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace bcdb {

void MergeEqualityComponents(const BlockchainDatabase& db,
                             const std::vector<EqualityConstraint>& equalities,
                             const DynamicBitset& nodes, UnionFind& uf) {
  // A bucket collapses into one component iff both sides are non-empty —
  // constraint-satisfied pairs form a complete bipartite graph between the
  // two sides. Rather than materializing member vectors per bucket (a heap
  // allocation each, all torn down again at the end — this runs per check
  // on the OptDCSat hot path for Θ_q), keep only an activation anchor per
  // bucket: once both sides have appeared, every member unions with the
  // anchor on sight. Members that arrive while their bucket is still
  // one-sided are parked in one shared deferred list and folded in at the
  // end if their bucket activated. Union order differs from the vector
  // formulation but the resulting partition is identical.
  constexpr PendingId kInactive = static_cast<PendingId>(-1);
  struct BucketState {
    std::uint32_t ordinal;
    bool has_lhs = false;
    bool has_rhs = false;
  };
  struct NodeSpans {
    PendingId id;
    const std::vector<TupleId>* lhs;
    const std::vector<TupleId>* rhs;
  };
  FlatIdMap<Tuple, BucketState, TupleHash, TupleEq> buckets;
  std::vector<PendingId> anchors;  // ordinal → anchor, kInactive until both sides seen.
  std::vector<std::pair<std::uint32_t, PendingId>> deferred;
  std::vector<NodeSpans> spans;
  for (const EqualityConstraint& eq : equalities) {
    buckets.clear();
    anchors.clear();
    deferred.clear();
    spans.clear();
    const Relation& lhs_rel = db.database().relation(eq.lhs_relation_id);
    const Relation& rhs_rel = db.database().relation(eq.rhs_relation_id);
    // One owner-table probe per (node, side): the spans stay valid while the
    // relations are untouched, so the sizing pass and the fill pass share
    // them, and tuple-less nodes drop out before the fill.
    std::size_t expected = 0;
    nodes.ForEach([&](std::size_t id) {
      const TupleOwner owner = static_cast<TupleOwner>(id);
      const std::vector<TupleId>& lhs = lhs_rel.TuplesOwnedBy(owner);
      const std::vector<TupleId>& rhs = rhs_rel.TuplesOwnedBy(owner);
      if (lhs.empty() && rhs.empty()) return;
      expected += lhs.size() + rhs.size();
      spans.push_back(NodeSpans{id, &lhs, &rhs});
    });
    buckets.reserve(expected);
    const auto visit = [&](Tuple key, bool rhs_side, PendingId id) {
      auto [it, inserted] = buckets.try_emplace(std::move(key));
      BucketState& state = it->second;
      if (inserted) {
        state.ordinal = static_cast<std::uint32_t>(anchors.size());
        anchors.push_back(kInactive);
      }
      (rhs_side ? state.has_rhs : state.has_lhs) = true;
      PendingId& anchor = anchors[state.ordinal];
      if (anchor != kInactive) {
        uf.Union(anchor, id);
      } else if (state.has_lhs && state.has_rhs) {
        anchor = id;  // Activation; parked members union in the final pass.
      } else {
        deferred.emplace_back(state.ordinal, id);
      }
    };
    for (const NodeSpans& node : spans) {
      for (TupleId t : *node.lhs) {
        visit(lhs_rel.tuple(t).Project(eq.lhs_positions), false, node.id);
      }
      for (TupleId t : *node.rhs) {
        visit(rhs_rel.tuple(t).Project(eq.rhs_positions), true, node.id);
      }
    }
    for (const auto& [ordinal, id] : deferred) {
      if (anchors[ordinal] != kInactive) uf.Union(anchors[ordinal], id);
    }
  }
}

ComponentList GroupComponents(const DynamicBitset& nodes, UnionFind& uf) {
  // Union-find roots are dense pending ids, so group by direct array
  // indexing — no hashing. ForEach visits ids ascending, which makes each
  // component's first-encountered member its smallest; numbering components
  // in first-encounter order therefore *is* the canonical order (ascending
  // smallest member, members ascending) that keeps the scan — and the
  // deterministic lowest-violating-component witness — independent of
  // union-find history and of the table backend. No sort needed: a counting
  // pass sizes each component, a stable placement pass fills them.
  std::vector<std::uint32_t> slot_of_root(uf.num_elements(), 0);  // idx + 1.
  std::vector<std::uint32_t> slot_of_member;
  slot_of_member.reserve(nodes.Count());
  ComponentList components;
  nodes.ForEach([&](std::size_t id) {
    std::uint32_t& slot = slot_of_root[uf.Find(id)];
    if (slot == 0) {
      components.offsets.push_back(0);
      slot = static_cast<std::uint32_t>(components.size());
    }
    ++components.offsets[slot];
    slot_of_member.push_back(slot - 1);
  });
  // Sizes → start offsets; `next` then walks each component's free slots.
  for (std::size_t i = 1; i < components.offsets.size(); ++i) {
    components.offsets[i] += components.offsets[i - 1];
  }
  std::vector<std::size_t> next(components.offsets.begin(),
                                components.offsets.end() - 1);
  components.members.resize(slot_of_member.size());
  std::size_t member = 0;
  nodes.ForEach([&](std::size_t id) {
    components.members[next[slot_of_member[member++]]++] = id;
  });
  return components;
}

void EqualityComponents::Rebuild(const BlockchainDatabase& db,
                                 std::vector<EqualityConstraint> equalities,
                                 const DynamicBitset& nodes) {
  db_ = &db;
  equalities_ = std::move(equalities);
  buckets_.assign(equalities_.size(), Buckets{});
  footprints_.assign(db.num_pending(), {});
  uf_.Reset(db.num_pending());
  // One bucket entry per valid pending tuple on either side; pre-sizing
  // avoids every rehash of the inserts below.
  for (std::size_t ord = 0; ord < equalities_.size(); ++ord) {
    const EqualityConstraint& eq = equalities_[ord];
    const Relation& lhs_rel = db.database().relation(eq.lhs_relation_id);
    const Relation& rhs_rel = db.database().relation(eq.rhs_relation_id);
    std::size_t expected = 0;
    nodes.ForEach([&](std::size_t id) {
      const TupleOwner owner = static_cast<TupleOwner>(id);
      expected += lhs_rel.TuplesOwnedBy(owner).size() +
                  rhs_rel.TuplesOwnedBy(owner).size();
    });
    buckets_[ord].reserve(expected);
  }
  // Constraint-major, so each constraint's member vectors are allocated
  // together: RecomputeUnions walks one constraint's buckets at a time, and
  // node-major inserts measured ~15% slower there.
  for (std::size_t ord = 0; ord < equalities_.size(); ++ord) {
    nodes.ForEach([&](std::size_t id) { Insert(ord, id); });
  }
}

void EqualityComponents::CollapseBucket(const Bucket& bucket) {
  if (bucket.lhs_members.empty() || bucket.rhs_members.empty()) return;
  const PendingId anchor = bucket.lhs_members.front();
  for (PendingId id : bucket.lhs_members) uf_.Union(anchor, id);
  for (PendingId id : bucket.rhs_members) uf_.Union(anchor, id);
}

void EqualityComponents::GrowTo(std::size_t num_pending) {
  uf_.Grow(num_pending);
  if (footprints_.size() < num_pending) footprints_.resize(num_pending);
}

void EqualityComponents::AddNode(PendingId id) {
  GrowTo(id + 1);
  for (std::size_t ord = 0; ord < equalities_.size(); ++ord) Insert(ord, id);
}

void EqualityComponents::Insert(std::size_t ordinal, PendingId id) {
  const EqualityConstraint& eq = equalities_[ordinal];
  for (const bool rhs_side : {false, true}) {
    const Relation& rel = db_->database().relation(
        rhs_side ? eq.rhs_relation_id : eq.lhs_relation_id);
    for (TupleId t : rel.TuplesOwnedBy(static_cast<TupleOwner>(id))) {
      Tuple key = rel.tuple(t).Project(rhs_side ? eq.rhs_positions
                                                : eq.lhs_positions);
      footprints_[id].push_back(FootprintEntry{ordinal, rhs_side, key});
      Bucket& bucket = buckets_[ordinal][std::move(key)];
      std::vector<PendingId>& own =
          rhs_side ? bucket.rhs_members : bucket.lhs_members;
      const std::vector<PendingId>& other =
          rhs_side ? bucket.lhs_members : bucket.rhs_members;
      if (own.empty()) {
        // The bucket gains its second side only now: it collapses.
        for (PendingId member : other) uf_.Union(id, member);
      } else if (!other.empty()) {
        // Already collapsed, so joining one member joins them all.
        uf_.Union(id, other.front());
      }
      own.push_back(id);
    }
  }
}

void EqualityComponents::RemoveNode(PendingId id) {
  if (id >= footprints_.size()) return;
  for (const FootprintEntry& entry : footprints_[id]) {
    auto it = buckets_[entry.ordinal].find(entry.key);
    if (it == buckets_[entry.ordinal].end()) continue;
    std::vector<PendingId>& members =
        entry.rhs_side ? it->second.rhs_members : it->second.lhs_members;
    members.erase(std::remove(members.begin(), members.end(), id),
                  members.end());
    if (it->second.lhs_members.empty() && it->second.rhs_members.empty()) {
      buckets_[entry.ordinal].erase(it);
    }
  }
  footprints_[id].clear();
}

void EqualityComponents::RecomputeUnions() {
  uf_.Reset(footprints_.size());
  for (const Buckets& buckets : buckets_) {
    for (const auto& [key, bucket] : buckets) CollapseBucket(bucket);
  }
}

}  // namespace bcdb
