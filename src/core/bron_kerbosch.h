#ifndef BCDB_CORE_BRON_KERBOSCH_H_
#define BCDB_CORE_BRON_KERBOSCH_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "util/bitset.h"
#include "util/deadline.h"

namespace bcdb {

/// A graph given by its complement: conflicts[v] lists, ascending, the
/// vertices v is *not* adjacent to. Every other distinct pair is adjacent.
/// The lists must be symmetric. This is how G^fd_T is stored — "complete
/// minus a few conflict pairs" — so its size is O(n + conflicts).
using ConflictLists = std::vector<std::vector<std::size_t>>;

/// Receives one maximal clique, its vertex ids in the order the search
/// added them (pivot order — not sorted). Return false to stop the
/// enumeration early — DCSat stops at the first world that violates the
/// denial constraint.
using CliqueCallback = std::function<bool(const std::vector<std::size_t>&)>;

struct CliqueEnumerationStats {
  std::size_t cliques_reported = 0;
  std::size_t recursive_calls = 0;
  bool stopped_early = false;
  /// The enumeration was abandoned because `budget` expired (a strict
  /// subset of stopped_early).
  bool budget_expired = false;
};

/// Enumerates all maximal cliques of the graph `conflicts` describes,
/// restricted to the vertices in `subset`, via Bron–Kerbosch (Algorithm 457)
/// with the Tomita et al. pivoting rule (`use_pivot`; without it the plain
/// variant runs, kept for the ablation benchmark). Every conflict id must be
/// below subset.size().
///
/// The pivot is the u ∈ P ∪ X maximizing |P ∩ N(u)|, ties to the first in
/// P ascending, then X ascending; branches run ascending. Over conflict
/// lists that score is |P| − |P ∩ C(u)| − [u ∈ P], computed in O(|C(u)|),
/// so a near-complete graph costs O(n/64) word operations per level rather
/// than O(n²/64). Clique order and stats equal a dense-adjacency Tomita
/// search's exactly (the unit tests keep such a search as their oracle).
///
/// If `subset` is empty the single (empty) maximal clique is reported — the
/// current state with no pending transactions is itself a possible world.
///
/// When the pivot is a vertex of P with no conflict in P, the search adds
/// every such vertex of P in one step, in the order and with the
/// `recursive_calls` the one-call-per-vertex descent would produce.
///
/// `budget` (optional) is probed at every recursive expansion or bulk step —
/// the enumeration's cooperative preemption points, so a deadline can
/// overshoot by one bulk step, O(|P| + conflicts) — and the search unwinds
/// as soon as it reports expiry, leaving `budget_expired` set. With a null or
/// never-expiring budget the enumeration order, the reported cliques, and
/// the stats are bit-identical to a run without budget probes.
CliqueEnumerationStats EnumerateMaximalCliques(const ConflictLists& conflicts,
                                               const DynamicBitset& subset,
                                               bool use_pivot,
                                               const CliqueCallback& callback,
                                               const Budget* budget = nullptr);

}  // namespace bcdb

#endif  // BCDB_CORE_BRON_KERBOSCH_H_
