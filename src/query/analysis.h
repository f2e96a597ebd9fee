#ifndef BCDB_QUERY_ANALYSIS_H_
#define BCDB_QUERY_ANALYSIS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "constraints/constraint.h"
#include "query/ast.h"
#include "relational/schema.h"
#include "util/status.h"

namespace bcdb {

/// Structural properties of a denial constraint that select which DCSat
/// algorithm applies (Section 6 of the paper).
struct QueryAnalysis {
  /// q(R) ⊆ q(R') whenever R ⊆ R'? Conservative: `false` means "not proved
  /// monotone", triggering the exhaustive fallback.
  bool monotone = false;
  /// Why the classifier decided `monotone` (for diagnostics).
  std::string monotone_reason;
  /// Is the Gaifman graph (over the terms of the positive atoms, with
  /// `=`-comparisons merging terms) connected? Only meaningful for
  /// non-aggregate constraints; always false for aggregates, which the
  /// paper excludes from the connected optimization.
  bool connected = false;
};

/// Classifies `q`. The monotonicity rules are:
/// - positive conjunctive queries are monotone;
/// - any negated atom makes the result non-monotone (conservatively);
/// - aggregate constraints with a positive body are monotone when the
///   aggregate can only move toward the threshold as tuples are added:
///   count/cntd/max with > or >=, sum with > or >= over a non-negative
///   attribute (schema hint resolved via `catalog`), min with < or <=.
QueryAnalysis AnalyzeQuery(const DenialConstraint& q, const Catalog& catalog);

/// An equality constraint θ: R[X̄] = S[Ȳ] (paper Section 6.2). Position
/// lists are parallel and equally long. Satisfied by a tuple pair (t, s)
/// with t[X̄] = s[Ȳ]; satisfied by a transaction pair if some tuple pair
/// from them satisfies it.
struct EqualityConstraint {
  std::size_t lhs_relation_id;
  std::size_t rhs_relation_id;
  std::vector<std::size_t> lhs_positions;
  std::vector<std::size_t> rhs_positions;
};

/// Does `implier` connect every transaction pair that `implied` connects?
/// True when both join the same relation pair and `implier`'s set of
/// (lhs position, rhs position) pairs is a subset of `implied`'s, compared
/// in both orientations (so a self-join also matches with the pairs
/// swapped): every tuple pair satisfying `implied` then satisfies
/// `implier`. Merging `implied` after `implier` changes no component.
bool Implies(const EqualityConstraint& implier,
             const EqualityConstraint& implied);

/// Θ_I: one equality constraint per inclusion dependency.
std::vector<EqualityConstraint> EqualitiesFromConstraints(
    const ConstraintSet& constraints);

/// Θ_q: for every pair of positive atoms, the positional equalities implied
/// by shared variables (after propagating `=`-comparisons through a
/// union-find) and by shared constants, as a non-redundant generating set:
/// an equality that another one Implies is dropped, and of equalities that
/// imply each other (the same pairs, perhaps written the other way round)
/// only the first, in atom-pair order and orientation, is kept. Merging the
/// result yields the same components as merging every pairwise equality.
/// Fails on atoms that do not bind to the catalog.
StatusOr<std::vector<EqualityConstraint>> EqualitiesFromQuery(
    const DenialConstraint& q, const Catalog& catalog);

}  // namespace bcdb

#endif  // BCDB_QUERY_ANALYSIS_H_
