#ifndef BCDB_CONSTRAINTS_CHECKER_H_
#define BCDB_CONSTRAINTS_CHECKER_H_

#include <cstddef>
#include <vector>

#include "constraints/constraint.h"
#include "relational/database.h"
#include "relational/world_view.h"
#include "util/status.h"

namespace bcdb {

/// Index-backed satisfaction checks of a `ConstraintSet` over the possible
/// worlds of a `Database`.
///
/// The checker prepares one hash index per FD determinant and per IND
/// right-hand side at construction; all subsequent checks are lookups.
/// The incremental check `CanAppendOwner` (and its IND half
/// `IndsHoldOnAppend`, for clique members) is the workhorse of `getMaximal`:
/// given a world that already satisfies `I`, it decides whether activating
/// one more pending transaction preserves `I`, in time proportional to the
/// transaction's size (not the database's).
class ConstraintChecker {
 public:
  /// `db` and `constraints` must outlive the checker.
  ConstraintChecker(const Database* db, const ConstraintSet* constraints);

  const ConstraintSet& constraints() const { return *constraints_; }

  /// Full check: do the tuples visible in `view` satisfy every constraint?
  /// Returns OK or a ConstraintViolation status naming the first violation.
  Status CheckAll(const WorldView& view) const;

  bool Satisfies(const WorldView& view) const { return CheckAll(view).ok(); }

  /// Incremental check: assuming the world `view` satisfies `I`, would the
  /// world `view + {owner}` still satisfy it? Sound and complete because
  /// appended tuples can only (a) collide on FD determinants — checked
  /// against all tuples visible in the extended world — or (b) require IND
  /// witnesses — which, for already-visible tuples, persist under insertion.
  /// Reads `view` in place: a tuple counts as visible in the extended world
  /// when it is visible in `view` or `owner` is among its owners.
  bool CanAppendOwner(const WorldView& view, TupleOwner owner) const;

  /// The IND half of CanAppendOwner alone: assuming `view` satisfies `I`,
  /// does every inclusion dependency still hold in `view + {owner}`? Equals
  /// CanAppendOwner whenever the FDs are known to hold in the extended world
  /// — e.g. when `view`'s pending owners and `owner` all lie in one clique
  /// of G^fd_T: every member is FD-consistent with R, the members are
  /// pairwise FD-consistent, and FD violations are binary, so every subset
  /// of the clique is FD-consistent with R.
  bool IndsHoldOnAppend(const WorldView& view, TupleOwner owner) const;

  /// Do the tuples of `a` and `b` together satisfy all FDs? This is the edge
  /// predicate of the fd-transaction graph G^fd_T (pairwise check only;
  /// conflicts against the base state are covered by FdConsistentWithBase).
  bool FdConsistentPair(TupleOwner a, TupleOwner b) const;

  /// Do `owner`'s tuples, together with the base state, satisfy all FDs?
  /// (Node-level filter: FD violations are binary, so base-vs-owner and
  /// owner-vs-owner conflicts decompose the full check.)
  bool FdConsistentWithBase(TupleOwner owner) const;

 private:
  // True if the FD holds across `ids` (tuples of one relation) plus,
  // when `against_base` is set, the base-visible tuples sharing determinants.
  bool FdHoldsOverOwners(const FunctionalDependency& fd, std::size_t fd_ordinal,
                         const std::vector<TupleOwner>& owners,
                         bool against_base) const;

  const Database* db_;
  const ConstraintSet* constraints_;
  // Parallel to constraints_->fds(): index over the FD's lhs positions.
  std::vector<std::size_t> fd_index_ids_;
  // Parallel to constraints_->inds(): index over the IND's rhs positions
  // (sorted), plus the lhs positions permuted to match.
  struct IndPlan {
    std::size_t rhs_index_id;
    std::vector<std::size_t> sorted_rhs_positions;
    std::vector<std::size_t> permuted_lhs_positions;
  };
  std::vector<IndPlan> ind_plans_;
};

}  // namespace bcdb

#endif  // BCDB_CONSTRAINTS_CHECKER_H_
