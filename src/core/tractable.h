#ifndef BCDB_CORE_TRACTABLE_H_
#define BCDB_CORE_TRACTABLE_H_

#include <optional>

#include "core/blockchain_db.h"
#include "core/fd_graph.h"

// Forward declarations to avoid a core <-> core include cycle with dcsat.h
// and heavyweight includes of the query compiler and the analyzer.
namespace bcdb {
struct DcSatResult;
class CompiledQuery;
enum class TractabilityClass;
}

namespace bcdb {

/// Polynomial-time decision procedures for the tractable fragments of
/// Theorem 1 (and the monotone half of Theorem 2) — the cases where the
/// general clique search is provably unnecessary:
///
/// * **FD-only** (kPtimeFdOnly: `∆ ⊆ {key, fd}`, positive conjunctive `q`):
///   a world is any FD-compatible transaction set (inclusion witnesses never
///   gate appends), so `q` is realizable iff some satisfying assignment over
///   R ∪ T is *supported* by transactions that are pairwise FD-consistent
///   and individually consistent with R. We enumerate assignment supports
///   and check their owner sets against G^fd_T — |q| is constant, so this
///   is polynomial data complexity (Theorem 1, case DCSat(Qc,{key,fd})).
///
/// * **IND-only** (kPtimeIndOnly: `∆ ⊆ {ind}`, monotone `q`): without FDs no
///   two transactions conflict, so Poss(D) has a *unique maximal* world —
///   getMaximal over all of T — and a monotone constraint is satisfied iff
///   `q` is false there (Theorem 1 case DCSat(Qc,{ind}) restricted to
///   positive queries, and Theorem 2 case DCSat(Q+_{α,>},{ind})).
///
/// `klass` is the constraint's static class (ClassifyConstraint) and picks
/// the procedure; every other class returns nullopt, and so does the
/// FD-only procedure once the assignment-support enumeration exceeds
/// `support_limit` (it abstains rather than risk a pathological query
/// shape). The caller then runs the general algorithms. Results carry
/// `DcSatAlgorithm::kTractable` and a witness world when unsatisfied.
///
/// `fd_graph` must be current for `db` (the engine's cached one) and
/// `compiled` must be the constraint compiled against `db`'s database,
/// decided under `binding` (empty for a ground constraint). The procedure
/// only reads them, so concurrent callers may share all three.
std::optional<DcSatResult> TryTractableDcSat(const BlockchainDatabase& db,
                                             const FdGraph& fd_graph,
                                             const CompiledQuery& compiled,
                                             const Tuple& binding,
                                             TractabilityClass klass,
                                             std::size_t support_limit = 100000);

}  // namespace bcdb

#endif  // BCDB_CORE_TRACTABLE_H_
