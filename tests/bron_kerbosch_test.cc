#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/bron_kerbosch.h"
#include "util/bitset.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace bcdb {
namespace {

using CliqueSet = std::set<std::vector<std::size_t>>;
using CliqueSequence = std::vector<std::vector<std::size_t>>;

/// Undirected graph over [0, n) with dense bitset adjacency rows — the
/// representation the clique search used to run on, kept here to state
/// graphs plainly and to drive the dense oracle below.
class DenseGraph {
 public:
  explicit DenseGraph(std::size_t n) : rows_(n, DynamicBitset(n)) {}

  std::size_t num_vertices() const { return rows_.size(); }

  void AddEdge(std::size_t u, std::size_t v) {
    if (u == v) return;
    rows_[u].Set(v);
    rows_[v].Set(u);
  }

  void RemoveEdge(std::size_t u, std::size_t v) {
    if (u == v) return;
    rows_[u].Reset(v);
    rows_[v].Reset(u);
  }

  bool HasEdge(std::size_t u, std::size_t v) const {
    return u != v && rows_[u].Test(v);
  }

  const DynamicBitset& Neighbors(std::size_t v) const { return rows_[v]; }

  void MakeComplete() {
    for (std::size_t v = 0; v < rows_.size(); ++v) {
      rows_[v].SetAll();
      rows_[v].Reset(v);
    }
  }

  /// The same graph as conflict lists: each vertex's non-neighbours.
  ConflictLists ToConflicts() const {
    ConflictLists conflicts(rows_.size());
    for (std::size_t u = 0; u < rows_.size(); ++u) {
      for (std::size_t v = 0; v < rows_.size(); ++v) {
        if (u != v && !rows_[u].Test(v)) conflicts[u].push_back(v);
      }
    }
    return conflicts;
  }

 private:
  std::vector<DynamicBitset> rows_;
};

/// Test oracle: the dense-row Bron–Kerbosch/Tomita enumerator the library
/// ran before it moved to conflict lists. The conflict-list search must
/// reproduce its clique sequence and stats exactly.
class DenseEnumerator {
 public:
  DenseEnumerator(const DenseGraph& graph, bool use_pivot,
                  const CliqueCallback& callback, const Budget* budget)
      : graph_(graph),
        use_pivot_(use_pivot),
        callback_(callback),
        budget_(budget) {}

  CliqueEnumerationStats Run(const DynamicBitset& subset) {
    DynamicBitset p = subset;
    DynamicBitset x(subset.size());
    Expand(p, x);
    return stats_;
  }

 private:
  bool Expand(DynamicBitset& p, DynamicBitset& x) {
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

    DynamicBitset candidates = p;
    if (use_pivot_) {
      std::size_t best_u = p.size();
      std::size_t best_score = 0;
      auto consider = [&](std::size_t u) {
        const std::size_t score = p.IntersectionCount(graph_.Neighbors(u));
        if (best_u == p.size() || score > best_score) {
          best_u = u;
          best_score = score;
        }
      };
      p.ForEach(consider);
      x.ForEach(consider);
      if (best_u != p.size()) candidates -= graph_.Neighbors(best_u);
    }

    bool keep_going = true;
    candidates.ForEach([&](std::size_t v) {
      if (!keep_going) return;
      if (!p.Test(v)) return;
      current_.push_back(v);
      DynamicBitset next_p = p & graph_.Neighbors(v);
      DynamicBitset next_x = x & graph_.Neighbors(v);
      keep_going = Expand(next_p, next_x);
      current_.pop_back();
      p.Reset(v);
      x.Set(v);
    });
    return keep_going;
  }

  const DenseGraph& graph_;
  const bool use_pivot_;
  const CliqueCallback& callback_;
  const Budget* budget_;
  std::vector<std::size_t> current_;
  CliqueEnumerationStats stats_;
};

/// One enumeration's observable output: the cliques in report order (as
/// reported, unsorted) and the stats.
struct Trace {
  CliqueSequence cliques;
  CliqueEnumerationStats stats;
};

bool SameTrace(const Trace& a, const Trace& b) {
  return a.cliques == b.cliques &&
         a.stats.cliques_reported == b.stats.cliques_reported &&
         a.stats.recursive_calls == b.stats.recursive_calls &&
         a.stats.stopped_early == b.stats.stopped_early &&
         a.stats.budget_expired == b.stats.budget_expired;
}

/// Runs the search (or, with `dense`, the oracle), stopping after the
/// `stop_at`-th clique when set, and charging each clique to a fresh
/// budget with `limits`.
Trace Record(const DenseGraph& g, const ConflictLists& conflicts,
             const DynamicBitset& subset, bool use_pivot, bool dense,
             std::optional<std::size_t> stop_at = std::nullopt,
             const BudgetLimits& limits = BudgetLimits{}) {
  Trace trace;
  Budget budget(limits);
  const CliqueCallback callback = [&](const std::vector<std::size_t>& c) {
    trace.cliques.push_back(c);
    budget.ChargeWorld();
    return !stop_at.has_value() || trace.cliques.size() < *stop_at;
  };
  const Budget* probe = limits.unlimited() ? nullptr : &budget;
  if (dense) {
    trace.stats = DenseEnumerator(g, use_pivot, callback, probe).Run(subset);
  } else {
    trace.stats =
        EnumerateMaximalCliques(conflicts, subset, use_pivot, callback, probe);
  }
  return trace;
}

CliqueSet Enumerate(const DenseGraph& g, const DynamicBitset& subset,
                    bool use_pivot) {
  CliqueSet cliques;
  EnumerateMaximalCliques(g.ToConflicts(), subset, use_pivot,
                          [&](const std::vector<std::size_t>& clique) {
                            std::vector<std::size_t> sorted = clique;
                            std::sort(sorted.begin(), sorted.end());
                            cliques.insert(sorted);
                            return true;
                          });
  return cliques;
}

DynamicBitset AllOf(std::size_t n) {
  DynamicBitset b(n);
  b.SetAll();
  return b;
}

/// Reference: maximal cliques by brute force over all vertex subsets.
CliqueSet BruteForce(const DenseGraph& g, const DynamicBitset& subset) {
  std::vector<std::size_t> vertices = subset.ToVector();
  const std::size_t n = vertices.size();
  std::vector<std::vector<std::size_t>> cliques;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) members.push_back(vertices[i]);
    }
    bool is_clique = true;
    for (std::size_t i = 0; i < members.size() && is_clique; ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (!g.HasEdge(members[i], members[j])) {
          is_clique = false;
          break;
        }
      }
    }
    if (is_clique) cliques.push_back(members);
  }
  // Keep only maximal ones.
  CliqueSet maximal;
  for (const auto& c : cliques) {
    bool contained = false;
    for (const auto& d : cliques) {
      if (d.size() > c.size() &&
          std::includes(d.begin(), d.end(), c.begin(), c.end())) {
        contained = true;
        break;
      }
    }
    if (!contained) maximal.insert(c);
  }
  return maximal;
}

TEST(BronKerboschTest, EmptyGraphSingleEmptyClique) {
  DenseGraph g(4);
  DynamicBitset none(4);
  CliqueSet cliques = Enumerate(g, none, true);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_TRUE(cliques.begin()->empty());
}

TEST(BronKerboschTest, IsolatedVertices) {
  DenseGraph g(3);
  CliqueSet cliques = Enumerate(g, AllOf(3), true);
  // Three singleton maximal cliques.
  EXPECT_EQ(cliques.size(), 3u);
}

TEST(BronKerboschTest, Triangle) {
  DenseGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  CliqueSet cliques = Enumerate(g, AllOf(3), true);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(*cliques.begin(), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(BronKerboschTest, CompleteMinusOneEdge) {
  // The running-example shape: K5 minus edge (0,4) has exactly the two
  // maximal cliques {1,2,3,4} and {0,1,2,3}.
  DenseGraph g(5);
  DynamicBitset all = AllOf(5);
  g.MakeComplete();
  g.RemoveEdge(0, 4);
  CliqueSet cliques = Enumerate(g, all, true);
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_TRUE(cliques.count({0, 1, 2, 3}));
  EXPECT_TRUE(cliques.count({1, 2, 3, 4}));
}

TEST(BronKerboschTest, SubsetRestriction) {
  DenseGraph g(5);
  g.MakeComplete();
  DynamicBitset subset(5);
  subset.Set(1);
  subset.Set(2);
  CliqueSet cliques = Enumerate(g, subset, true);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(*cliques.begin(), (std::vector<std::size_t>{1, 2}));
}

TEST(BronKerboschTest, EarlyStop) {
  DenseGraph g(6);  // Six isolated vertices -> six cliques.
  std::size_t seen = 0;
  CliqueEnumerationStats stats = EnumerateMaximalCliques(
      g.ToConflicts(), AllOf(6), true, [&](const std::vector<std::size_t>&) {
        return ++seen < 2;  // Stop after the second clique.
      });
  EXPECT_EQ(seen, 2u);
  EXPECT_TRUE(stats.stopped_early);
  EXPECT_EQ(stats.cliques_reported, 2u);
}

TEST(BronKerboschTest, MatchesBruteForceOnRandomGraphs) {
  Xoshiro256 rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 2 + rng.NextBelow(9);  // 2..10 vertices.
    const double p = rng.NextDouble();
    DenseGraph g(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.NextBool(p)) g.AddEdge(i, j);
      }
    }
    const CliqueSet expected = BruteForce(g, AllOf(n));
    EXPECT_EQ(Enumerate(g, AllOf(n), true), expected) << "trial " << trial;
    EXPECT_EQ(Enumerate(g, AllOf(n), false), expected)
        << "no-pivot trial " << trial;
  }
}

TEST(BronKerboschTest, PivotAndPlainAgreeOnDenseGraphs) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 12;
    DenseGraph g(n);
    DynamicBitset all = AllOf(n);
    g.MakeComplete();
    // Remove a few random edges (the fd-graph conflict pattern).
    for (int k = 0; k < 4; ++k) {
      const std::size_t a = rng.NextBelow(n);
      const std::size_t b = rng.NextBelow(n);
      g.RemoveEdge(a, b);
    }
    EXPECT_EQ(Enumerate(g, all, true), Enumerate(g, all, false));
  }
}

/// A random graph of one of three shapes: any density on up to 16
/// vertices, near-complete with at most ten conflict pairs on up to 96 (the
/// G^fd_T pattern; at most 2^10 maximal cliques), or 50–95% dense on up to
/// 24.
DenseGraph RandomGraph(Xoshiro256& rng, int shape) {
  if (shape == 1) {
    DenseGraph g(1 + rng.NextBelow(96));
    g.MakeComplete();
    const std::size_t conflicts = rng.NextBelow(11);
    for (std::size_t k = 0; k < conflicts; ++k) {
      g.RemoveEdge(rng.NextBelow(g.num_vertices()),
                   rng.NextBelow(g.num_vertices()));
    }
    return g;
  }
  const std::size_t n = shape == 0 ? rng.NextBelow(17) : rng.NextBelow(25);
  const double edge_p =
      shape == 0 ? rng.NextDouble() : 0.5 + rng.NextDouble() * 0.45;
  DenseGraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.NextBool(edge_p)) g.AddEdge(i, j);
    }
  }
  return g;
}

TEST(BronKerboschTest, MatchesDenseOracleOnSeededGraphs) {
  Xoshiro256 rng(20190101);
  constexpr int kTrials = 21000;
  std::size_t runs = 0;
  std::size_t mismatches = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const DenseGraph g = RandomGraph(rng, trial % 3);
    const std::size_t n = g.num_vertices();
    DynamicBitset subset = AllOf(n);
    if (rng.NextBool(0.5)) {
      const double keep = rng.NextDouble();
      for (std::size_t v = 0; v < n; ++v) {
        if (!rng.NextBool(keep)) subset.Reset(v);
      }
    }
    std::optional<std::size_t> stop_at;
    if (rng.NextBool(0.3)) stop_at = 1 + rng.NextBelow(8);
    const ConflictLists conflicts = g.ToConflicts();
    for (const bool use_pivot : {true, false}) {
      // Plain Bron–Kerbosch is exponential on dense graphs.
      if (!use_pivot && n > 14) continue;
      ++runs;
      const Trace want = Record(g, conflicts, subset, use_pivot, true, stop_at);
      const Trace got = Record(g, conflicts, subset, use_pivot, false, stop_at);
      if (!SameTrace(want, got)) {
        ADD_FAILURE() << "trial " << trial << " n=" << n
                      << " pivot=" << use_pivot << ": " << got.cliques.size()
                      << " cliques / " << got.stats.recursive_calls
                      << " calls, oracle " << want.cliques.size() << " / "
                      << want.stats.recursive_calls;
        if (++mismatches == 5) return;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(runs, 20000u);
}

TEST(BronKerboschTest, MatchesDenseOracleOnNearCompleteGraphs) {
  // The G^fd_T shape of a mempool: long runs of conflict-free vertices,
  // which the search adds in bulk steps. A trial with more than ten
  // conflict pairs can have too many maximal cliques (up to 2^40) to
  // enumerate, so it stops early.
  Xoshiro256 rng(20261019);
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    DenseGraph g(64 + rng.NextBelow(257));
    const std::size_t n = g.num_vertices();
    g.MakeComplete();
    const std::size_t pairs = rng.NextBelow(n / 8 + 1);
    for (std::size_t k = 0; k < pairs; ++k) {
      g.RemoveEdge(rng.NextBelow(n), rng.NextBelow(n));
    }
    DynamicBitset subset = AllOf(n);
    if (rng.NextBool(0.5)) {
      const double keep = 0.5 + rng.NextDouble() * 0.5;
      for (std::size_t v = 0; v < n; ++v) {
        if (!rng.NextBool(keep)) subset.Reset(v);
      }
    }
    std::optional<std::size_t> stop_at;
    if (pairs > 10 || rng.NextBool(0.5)) stop_at = 1 + rng.NextBelow(16);
    const ConflictLists conflicts = g.ToConflicts();
    const Trace want = Record(g, conflicts, subset, true, true, stop_at);
    const Trace got = Record(g, conflicts, subset, true, false, stop_at);
    ASSERT_TRUE(SameTrace(want, got))
        << "trial " << trial << " n=" << n << " pairs=" << pairs << ": "
        << got.cliques.size() << " cliques / " << got.stats.recursive_calls
        << " calls, oracle " << want.cliques.size() << " / "
        << want.stats.recursive_calls;
  }
}

TEST(BronKerboschTest, NoBulkStepPastAKeyZeroVertexOfX) {
  // The root pivots on 0 and branches on 0, 1 and 4. In the branch on 4,
  // P = {5} and X = {1}: 5 is conflict-free in P, but 1 is adjacent to 4
  // and 5, so {4, 5} is not maximal and the call must end there instead of
  // adding 5.
  DenseGraph g(6);
  g.MakeComplete();
  for (const auto& [a, b] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 1}, {0, 4}, {1, 2}, {2, 4}, {2, 5}, {3, 4}, {3, 5}}) {
    g.RemoveEdge(a, b);
  }
  const Trace want =
      Record(g, g.ToConflicts(), AllOf(6), /*use_pivot=*/true, true);
  const Trace got =
      Record(g, g.ToConflicts(), AllOf(6), /*use_pivot=*/true, false);
  EXPECT_EQ(got.cliques,
            (CliqueSequence{{0, 2, 3}, {0, 5}, {1, 3}, {1, 4, 5}}));
  EXPECT_EQ(got.stats.recursive_calls, 10u);
  EXPECT_TRUE(SameTrace(want, got));
}

TEST(BronKerboschTest, BudgetExpiryMatchesDenseOracle) {
  // Twelve isolated vertices: twelve singleton cliques, so a two-clique cap
  // expires mid-enumeration and the next call's probe unwinds the search.
  const DenseGraph g(12);
  BudgetLimits limits;
  limits.max_worlds = 2;
  for (const bool use_pivot : {true, false}) {
    const Trace want = Record(g, g.ToConflicts(), AllOf(12), use_pivot, true,
                              std::nullopt, limits);
    const Trace got = Record(g, g.ToConflicts(), AllOf(12), use_pivot, false,
                             std::nullopt, limits);
    EXPECT_TRUE(got.stats.budget_expired);
    EXPECT_TRUE(got.stats.stopped_early);
    EXPECT_EQ(got.cliques.size(), 3u);
    EXPECT_TRUE(SameTrace(want, got)) << "pivot=" << use_pivot;
  }
}

TEST(BronKerboschTest, CliquesArriveInPivotOrder) {
  // K4 minus (0, 3): vertex 1 is the pivot and enters first, so the first
  // clique is {1, 2, 0}, not sorted.
  DenseGraph g(4);
  g.MakeComplete();
  g.RemoveEdge(0, 3);
  const Trace got =
      Record(g, g.ToConflicts(), AllOf(4), /*use_pivot=*/true, false);
  ASSERT_EQ(got.cliques.size(), 2u);
  EXPECT_EQ(got.cliques[0], (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_EQ(got.cliques[1], (std::vector<std::size_t>{1, 2, 3}));
}

}  // namespace
}  // namespace bcdb
