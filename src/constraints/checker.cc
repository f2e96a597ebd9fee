#include "constraints/checker.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "util/flat_table.h"

namespace bcdb {

namespace {

/// Whether tuple `id` of `rel` is visible in the world `view + {owner}`,
/// without materializing that world.
bool VisibleWith(const Relation& rel, TupleId id, const WorldView& view,
                 TupleOwner owner) {
  if (rel.IsVisible(id, view)) return true;
  const std::span<const TupleOwner> owners = rel.owners(id);
  return std::find(owners.begin(), owners.end(), owner) != owners.end();
}

}  // namespace

ConstraintChecker::ConstraintChecker(const Database* db,
                                     const ConstraintSet* constraints)
    : db_(db), constraints_(constraints) {
  fd_index_ids_.reserve(constraints_->fds().size());
  for (const FunctionalDependency& fd : constraints_->fds()) {
    fd_index_ids_.push_back(
        db_->relation(fd.relation_id()).GetOrBuildIndex(fd.lhs()));
  }
  ind_plans_.reserve(constraints_->inds().size());
  for (const InclusionDependency& ind : constraints_->inds()) {
    // Index positions must be sorted; permute the (parallel) lhs positions
    // with the same permutation so projections stay aligned.
    std::vector<std::size_t> perm(ind.rhs_positions().size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      return ind.rhs_positions()[a] < ind.rhs_positions()[b];
    });
    IndPlan plan;
    plan.sorted_rhs_positions.reserve(perm.size());
    plan.permuted_lhs_positions.reserve(perm.size());
    for (std::size_t p : perm) {
      plan.sorted_rhs_positions.push_back(ind.rhs_positions()[p]);
      plan.permuted_lhs_positions.push_back(ind.lhs_positions()[p]);
    }
    plan.rhs_index_id = db_->relation(ind.rhs_relation_id())
                            .GetOrBuildIndex(plan.sorted_rhs_positions);
    ind_plans_.push_back(std::move(plan));
  }
}

Status ConstraintChecker::CheckAll(const WorldView& view) const {
  const Catalog& catalog = db_->catalog();
  for (const FunctionalDependency& fd : constraints_->fds()) {
    const Relation& rel = db_->relation(fd.relation_id());
    FlatIdMap<Tuple, TupleId, TupleHash, TupleEq> seen;
    seen.reserve(rel.num_tuples());
    Status violation = Status::OK();
    rel.ForEachVisible(view, [&](TupleId id) {
      if (!violation.ok()) return;
      Tuple key = rel.tuple(id).Project(fd.lhs());
      auto [it, inserted] = seen.emplace(std::move(key), id);
      if (!inserted) {
        const Tuple& other = rel.tuple(it->second);
        if (rel.tuple(id).Project(fd.rhs()) != other.Project(fd.rhs())) {
          violation = Status::ConstraintViolation(
              "FD " + fd.ToString(catalog) + " violated by " +
              rel.tuple(id).ToString() + " and " + other.ToString());
        }
      }
    });
    if (!violation.ok()) return violation;
  }
  for (std::size_t i = 0; i < constraints_->inds().size(); ++i) {
    const InclusionDependency& ind = constraints_->inds()[i];
    const IndPlan& plan = ind_plans_[i];
    const Relation& lhs_rel = db_->relation(ind.lhs_relation_id());
    const Relation& rhs_rel = db_->relation(ind.rhs_relation_id());
    Status violation = Status::OK();
    lhs_rel.ForEachVisible(view, [&](TupleId id) {
      if (!violation.ok()) return;
      const ProjectionKey key =
          lhs_rel.tuple(id).ProjectKey(plan.permuted_lhs_positions);
      bool found = false;
      for (TupleId rhs_id : rhs_rel.IndexLookup(plan.rhs_index_id, key)) {
        if (rhs_rel.IsVisible(rhs_id, view)) {
          found = true;
          break;
        }
      }
      if (!found) {
        violation = Status::ConstraintViolation(
            "IND " + ind.ToString(catalog) + " violated by " +
            lhs_rel.tuple(id).ToString() + ": no witness");
      }
    });
    if (!violation.ok()) return violation;
  }
  return Status::OK();
}

bool ConstraintChecker::CanAppendOwner(const WorldView& view,
                                       TupleOwner owner) const {
  // FDs: every tuple contributed by `owner` must agree with all tuples
  // sharing its determinant that are visible in `view + {owner}` (including
  // the owner's own tuples).
  for (std::size_t i = 0; i < constraints_->fds().size(); ++i) {
    const FunctionalDependency& fd = constraints_->fds()[i];
    const Relation& rel = db_->relation(fd.relation_id());
    for (TupleId id : rel.TuplesOwnedBy(owner)) {
      const ProjectionKey key = rel.tuple(id).ProjectKey(fd.lhs());
      const Tuple dependent = rel.tuple(id).Project(fd.rhs());
      for (TupleId other : rel.IndexLookup(fd_index_ids_[i], key)) {
        if (other == id || !VisibleWith(rel, other, view, owner)) continue;
        if (rel.tuple(other).Project(fd.rhs()) != dependent) return false;
      }
    }
  }
  return IndsHoldOnAppend(view, owner);
}

bool ConstraintChecker::IndsHoldOnAppend(const WorldView& view,
                                         TupleOwner owner) const {
  // New lhs tuples need a witness visible in `view + {owner}`; existing
  // visible tuples keep theirs (insertion never removes witnesses).
  for (std::size_t i = 0; i < constraints_->inds().size(); ++i) {
    const InclusionDependency& ind = constraints_->inds()[i];
    const IndPlan& plan = ind_plans_[i];
    const Relation& lhs_rel = db_->relation(ind.lhs_relation_id());
    const Relation& rhs_rel = db_->relation(ind.rhs_relation_id());
    for (TupleId id : lhs_rel.TuplesOwnedBy(owner)) {
      if (lhs_rel.IsVisible(id, view)) continue;  // Already present before.
      const ProjectionKey key =
          lhs_rel.tuple(id).ProjectKey(plan.permuted_lhs_positions);
      bool found = false;
      for (TupleId rhs_id : rhs_rel.IndexLookup(plan.rhs_index_id, key)) {
        if (VisibleWith(rhs_rel, rhs_id, view, owner)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
  }
  return true;
}

bool ConstraintChecker::FdConsistentPair(TupleOwner a, TupleOwner b) const {
  for (std::size_t i = 0; i < constraints_->fds().size(); ++i) {
    if (!FdHoldsOverOwners(constraints_->fds()[i], i, {a, b},
                           /*against_base=*/false)) {
      return false;
    }
  }
  return true;
}

bool ConstraintChecker::FdConsistentWithBase(TupleOwner owner) const {
  for (std::size_t i = 0; i < constraints_->fds().size(); ++i) {
    if (!FdHoldsOverOwners(constraints_->fds()[i], i, {owner},
                           /*against_base=*/true)) {
      return false;
    }
  }
  return true;
}

bool ConstraintChecker::FdHoldsOverOwners(const FunctionalDependency& fd,
                                          std::size_t fd_ordinal,
                                          const std::vector<TupleOwner>& owners,
                                          bool against_base) const {
  const Relation& rel = db_->relation(fd.relation_id());
  const WorldView base = db_->BaseView();
  FlatIdMap<Tuple, Tuple, TupleHash, TupleEq> determinant_to_dependent;
  std::size_t expected = 0;
  for (TupleOwner owner : owners) expected += rel.TuplesOwnedBy(owner).size();
  determinant_to_dependent.reserve(expected);
  for (TupleOwner owner : owners) {
    for (TupleId id : rel.TuplesOwnedBy(owner)) {
      Tuple key = rel.tuple(id).Project(fd.lhs());
      Tuple dependent = rel.tuple(id).Project(fd.rhs());
      if (against_base) {
        for (TupleId other : rel.IndexLookup(fd_index_ids_[fd_ordinal], key)) {
          if (other == id || !rel.IsVisible(other, base)) continue;
          if (rel.tuple(other).Project(fd.rhs()) != dependent) return false;
        }
      }
      auto [it, inserted] =
          determinant_to_dependent.emplace(std::move(key), dependent);
      if (!inserted && it->second != dependent) return false;
    }
  }
  return true;
}

}  // namespace bcdb
