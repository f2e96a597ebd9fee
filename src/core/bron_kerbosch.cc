#include "core/bron_kerbosch.h"

#include <deque>
#include <limits>

namespace bcdb {

namespace {

class Enumerator {
 public:
  Enumerator(const ConflictLists& conflicts, bool use_pivot,
             const CliqueCallback& callback, const Budget* budget)
      : conflicts_(conflicts),
        use_pivot_(use_pivot),
        callback_(callback),
        budget_(budget) {}

  CliqueEnumerationStats Run(const DynamicBitset& subset) {
    DynamicBitset p = subset;
    DynamicBitset x(subset.size());
    Expand(p, x, 0);
    return stats_;
  }

 private:
  /// Scratch of one branching depth, reused by every call at that depth:
  /// the call's branch list and its children's P and X.
  struct Level {
    std::vector<std::size_t> candidates;
    DynamicBitset p;
    DynamicBitset x;
  };

  /// Returns false if the callback or the budget stopped the enumeration.
  bool Expand(DynamicBitset& p, DynamicBitset& x, std::size_t depth) {
    const std::size_t clique_size = current_.size();
    const bool keep_going = ExpandFrom(p, x, depth);
    current_.resize(clique_size);
    return keep_going;
  }

  /// One Bron–Kerbosch call. `p` and `x` are dead once it returns, so a
  /// call with a single branch descends into it in place (the next loop
  /// iteration is that child's call) — the long first-clique descent of a
  /// near-complete graph then copies no sets at all. A run of such calls
  /// that each add one conflict-free vertex of P is taken as one bulk step
  /// (see Candidates), so that descent also rescans P and X once per run
  /// instead of once per vertex.
  bool ExpandFrom(DynamicBitset& p, DynamicBitset& x, std::size_t depth) {
    if (levels_.size() == depth) levels_.emplace_back();
    Level& level = levels_[depth];
    for (;;) {
      // Cooperative preemption point: one probe per loop iteration keeps
      // the worst-case overshoot after expiry to a single recursion step or
      // bulk step, O(|P| + conflicts).
      if (budget_ != nullptr && budget_->Expired()) {
        stats_.stopped_early = true;
        stats_.budget_expired = true;
        return false;
      }
      ++stats_.recursive_calls;
      if (p.None() && x.None()) {
        ++stats_.cliques_reported;
        if (!callback_(current_)) {
          stats_.stopped_early = true;
          return false;
        }
        return true;
      }

      if (!use_pivot_) {
        // Plain Bron–Kerbosch branches on all of P, ascending. A branch
        // removes only its own vertex from P, so P itself can be walked.
        for (std::size_t v = p.FindFirst(); v < p.size();
             v = p.FindNext(v + 1)) {
          if (!Branch(p, x, v, level, depth)) return false;
        }
        return true;
      }
      if (Candidates(p, x, level.candidates)) {
        // F = level.candidates: the calls that would add each of F in turn
        // are taken at once, counted as the calls they stand for.
        for (std::size_t v : level.candidates) {
          current_.push_back(v);
          p.Reset(v);
          for (std::size_t w : conflicts_[v]) x.Reset(w);
        }
        stats_.recursive_calls += level.candidates.size() - 1;
        continue;
      }
      if (level.candidates.size() == 1) {
        const std::size_t v = level.candidates.front();
        current_.push_back(v);
        KeepNeighbors(p, v);
        KeepNeighbors(x, v);
        continue;
      }
      for (std::size_t v : level.candidates) {
        if (!Branch(p, x, v, level, depth)) return false;
      }
      return true;
    }
  }

  /// Recurses into P ∩ N(v), X ∩ N(v), then moves v from P to X.
  bool Branch(DynamicBitset& p, DynamicBitset& x, std::size_t v, Level& level,
              std::size_t depth) {
    current_.push_back(v);
    level.p = p;
    KeepNeighbors(level.p, v);
    level.x = x;
    KeepNeighbors(level.x, v);
    if (!Expand(level.p, level.x, depth + 1)) return false;
    current_.pop_back();
    p.Reset(v);
    x.Set(v);
    return true;
  }

  /// Fills `out` with the vertices Tomita pivoting branches on, ascending:
  /// P \ N(pivot). Returns true instead when the pivot is a conflict-free
  /// vertex of P, with `out` holding F, every conflict-free vertex of P,
  /// ascending: the pivoted search would add exactly these, in this order,
  /// one single-branch call each. The pivot u is F's lowest vertex and
  /// {u} is its only branch. Adding u removes only u from P, since u has no
  /// conflict there, so no other key in P changes; a vertex of X loses a
  /// conflict in P only if it conflicts with u, and then it leaves X. So no
  /// vertex of X reaches key 0, and the next pivot is F's next vertex.
  bool Candidates(const DynamicBitset& p, const DynamicBitset& x,
                  std::vector<std::size_t>& out) const {
    out.clear();
    // The pivot maximizes |P ∩ N(u)| = |P| − key(u), where
    // key(u) = |P ∩ C(u)| + [u ∈ P]; the first strict optimum over P
    // ascending, then X ascending, wins. An x ∈ X with key 0 beats every
    // vertex of P (whose keys are ≥ 1) and leaves nothing to branch on.
    for (std::size_t u = x.FindFirst(); u < x.size(); u = x.FindNext(u + 1)) {
      if (ConflictsIn(p, u) == 0) return false;
    }
    std::size_t pivot = p.size();
    std::size_t best_key = std::numeric_limits<std::size_t>::max();
    for (std::size_t u = p.FindFirst(); u < p.size(); u = p.FindNext(u + 1)) {
      const std::size_t key = ConflictsIn(p, u) + 1;
      if (key == 1) {
        // No vertex of P ∪ X can do better: collect F from u on.
        for (; u < p.size(); u = p.FindNext(u + 1)) {
          if (ConflictsIn(p, u) == 0) out.push_back(u);
        }
        return true;
      }
      if (key < best_key) {
        pivot = u;
        best_key = key;
      }
    }
    for (std::size_t u = x.FindFirst(); u < x.size(); u = x.FindNext(u + 1)) {
      const std::size_t key = ConflictsIn(p, u);
      if (key < best_key) {
        pivot = u;
        best_key = key;
      }
    }
    // P \ N(pivot) = P ∩ ({pivot} ∪ C(pivot)), merged ascending.
    bool pivot_pending = p.Test(pivot);
    for (std::size_t w : conflicts_[pivot]) {
      if (pivot_pending && pivot < w) {
        out.push_back(pivot);
        pivot_pending = false;
      }
      if (p.Test(w)) out.push_back(w);
    }
    if (pivot_pending) out.push_back(pivot);
    return false;
  }

  /// |P ∩ C(u)|.
  std::size_t ConflictsIn(const DynamicBitset& p, std::size_t u) const {
    std::size_t count = 0;
    for (std::size_t w : conflicts_[u]) count += p.Test(w) ? 1 : 0;
    return count;
  }

  /// s := s ∩ N(v) = s \ C(v) \ {v}.
  void KeepNeighbors(DynamicBitset& s, std::size_t v) const {
    for (std::size_t w : conflicts_[v]) s.Reset(w);
    s.Reset(v);
  }

  const ConflictLists& conflicts_;
  const bool use_pivot_;
  const CliqueCallback& callback_;
  const Budget* budget_;
  std::vector<std::size_t> current_;
  /// Indexed by branching depth; a deque, so a deeper frame's emplace_back
  /// never moves the Level a shallower frame is iterating.
  std::deque<Level> levels_;
  CliqueEnumerationStats stats_;
};

}  // namespace

CliqueEnumerationStats EnumerateMaximalCliques(const ConflictLists& conflicts,
                                               const DynamicBitset& subset,
                                               bool use_pivot,
                                               const CliqueCallback& callback,
                                               const Budget* budget) {
  Enumerator enumerator(conflicts, use_pivot, callback, budget);
  return enumerator.Run(subset);
}

}  // namespace bcdb
