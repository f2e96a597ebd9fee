#ifndef BCDB_CORE_GET_MAXIMAL_H_
#define BCDB_CORE_GET_MAXIMAL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/blockchain_db.h"
#include "core/fd_graph.h"
#include "relational/world_view.h"
#include "util/thread_annotations.h"

namespace bcdb {

struct GetMaximalStats {
  /// Rounds of the append fixpoint.
  std::size_t iterations = 0;
  std::size_t appended = 0;
  /// Appendability probes run: the fixpoint's, plus (clique entry point)
  /// the ones that filled slots of the appendability-to-R status.
  std::size_t probes = 0;
};

/// The paper's per-transaction appendability-to-R status (Section 6.3): for
/// each pending slot, whether the transaction's IND witnesses all lie in
/// R ∪ {itself}, so that it can join any world over R that is FD-consistent
/// with it. Filled lazily, one slot at a time, on the slot's first query.
///
/// Lock-free: each slot is one atomic byte (unknown, yes or no). Concurrent
/// const callers that query one unknown slot may both run the probe; both
/// store the same answer, so the race is benign. Reset is not thread-safe
/// and must not overlap any query (the owner resets only while it holds
/// the database still, before queries start).
class BaseAppendability {
 public:
  /// Forgets every answer and sizes the status to `num_slots` pending slots.
  void Reset(std::size_t num_slots);

  /// Whether INDs hold in `base` + {id}. `base` must be `db.BaseView()` and
  /// `id` below the size of the last Reset. Runs the probe on the slot's
  /// first query and counts it in `*probes`.
  bool Appendable(const BlockchainDatabase& db, const WorldView& base,
                  PendingId id, std::size_t* probes) const;

 private:
  enum : std::uint8_t { kUnknown = 0, kYes = 1, kNo = 2 };
  using Slot = std::atomic<std::uint8_t>;
  mutable std::vector<Slot> status_ BCDB_LOCK_FREE(
      "one byte per pending slot, plain load/store: a racing fill of one"
      " slot stores the same answer, and Reset never overlaps a query");
};

/// The paper's getMaximal(R, I, T'), general entry point: the unique maximal
/// possible world over arbitrary candidate transactions, built by a
/// fixpoint that keeps appending any candidate that CanAppendOwner accepts
/// (the full FD and IND probe). For the callers whose candidates need not
/// be a clique of G^fd_T: possible-world membership, the IND-only tractable
/// fragment, and probability sampling.
WorldView GetMaximal(const BlockchainDatabase& db,
                     const std::vector<PendingId>& candidates,
                     GetMaximalStats* stats = nullptr);

/// Clique entry point of getMaximal, for the clique search. Precondition
/// (checked in debug builds): every member of `clique` is a valid node of
/// `graph` and no two members conflict, i.e. `clique` is a clique of
/// G^fd_T. Then every subset of it is FD-consistent with R, the only reason
/// a member stays out is a missing IND witness, and the result equals
/// GetMaximal(db, clique): the fixpoint's monotone append operator has one
/// least fixpoint whatever the order.
///
/// Activates every member `appendability` marks appendable to R, then runs
/// the same fixpoint over the rest with the IND-only probe
/// (IndsHoldOnAppend). `appendability` must have been reset since the last
/// mutation of `db`.
WorldView GetMaximalOfClique(const BlockchainDatabase& db,
                             const FdGraph& graph,
                             const BaseAppendability& appendability,
                             const std::vector<PendingId>& clique,
                             GetMaximalStats* stats = nullptr);

}  // namespace bcdb

#endif  // BCDB_CORE_GET_MAXIMAL_H_
