#ifndef BCDB_UTIL_UNION_FIND_H_
#define BCDB_UTIL_UNION_FIND_H_

#include <cstddef>
#include <numeric>
#include <vector>

namespace bcdb {

/// Disjoint-set forest with union by size and path halving.
///
/// Used to compute the connected components of the ind-q-transaction graph
/// G^{q,ind}_T without materializing its edges.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  /// Reinitializes to `n` singleton sets, reusing existing capacity.
  void Reset(std::size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
    size_.assign(n, 1);
  }

  /// Extends the element space to `n`, keeping existing sets and adding the
  /// new elements as singletons. No-op when already at least that large.
  void Grow(std::size_t n) {
    const std::size_t old = parent_.size();
    if (n <= old) return;
    parent_.resize(n);
    std::iota(parent_.begin() + old, parent_.end(), old);
    size_.resize(n, 1);
  }

  /// Returns the representative of `x`'s set.
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // Path halving.
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of `a` and `b`. Returns true if they were distinct.
  bool Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }

  bool Connected(std::size_t a, std::size_t b) { return Find(a) == Find(b); }

  /// Size of the set containing `x`.
  std::size_t SetSize(std::size_t x) { return size_[Find(x)]; }

  std::size_t num_elements() const { return parent_.size(); }

  /// Groups element ids by component; every returned group is non-empty and
  /// the groups partition [0, n).
  std::vector<std::vector<std::size_t>> Components() {
    std::vector<std::vector<std::size_t>> by_root(parent_.size());
    for (std::size_t i = 0; i < parent_.size(); ++i) {
      by_root[Find(i)].push_back(i);
    }
    std::vector<std::vector<std::size_t>> result;
    for (auto& group : by_root) {
      if (!group.empty()) result.push_back(std::move(group));
    }
    return result;
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace bcdb

#endif  // BCDB_UTIL_UNION_FIND_H_
