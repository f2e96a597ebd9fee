#ifndef BCDB_CORE_POSSIBLE_WORLDS_H_
#define BCDB_CORE_POSSIBLE_WORLDS_H_

#include <cstddef>
#include <vector>

#include "core/blockchain_db.h"
#include "relational/world_view.h"
#include "util/deadline.h"
#include "util/status.h"

namespace bcdb {

/// Decides R' ∈ Poss(D) for R' = R ∪ (the given pending transactions)
/// — Proposition 1 of the paper, in PTIME.
///
/// Greedy: repeatedly append any transaction of `subset` that preserves I.
/// Complete because FD satisfaction is anti-monotone (any subset of an
/// FD-consistent set is FD-consistent) and IND witnesses persist under
/// insertion, so an appendable transaction never becomes unappendable.
bool IsPossibleWorld(const BlockchainDatabase& db,
                     const std::vector<PendingId>& subset);

/// Materializes Poss(D) exactly, as world views (the base world included),
/// by breadth-first search over the can-append relation. Exponential in
/// |T| in the worst case — this is the oracle for tests and for
/// ExhaustiveDcSat, not a production path. Fails with OutOfRange once more
/// than `limit` distinct worlds are found.
StatusOr<std::vector<WorldView>> EnumeratePossibleWorlds(
    const BlockchainDatabase& db, std::size_t limit);

/// EnumeratePossibleWorlds with graceful degradation: `budget` (may be
/// null = unlimited) is charged one world per BFS pop — the enumeration's
/// cooperative preemption point — and on expiry, or once `limit` worlds are
/// found and another remains, the search stops where it is instead of
/// erroring, returning the worlds found so far with `complete == false`. A
/// truncated enumeration is still a genuine subset of Poss(D); it just
/// cannot certify absence.
struct PossibleWorldsEnumeration {
  std::vector<WorldView> worlds;
  /// False: the budget expired or the limit was reached before Poss(D) was
  /// exhausted.
  bool complete = true;
};
PossibleWorldsEnumeration EnumeratePossibleWorldsWithin(
    const BlockchainDatabase& db, std::size_t limit, const Budget* budget);

}  // namespace bcdb

#endif  // BCDB_CORE_POSSIBLE_WORLDS_H_
