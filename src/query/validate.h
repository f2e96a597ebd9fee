#ifndef BCDB_QUERY_VALIDATE_H_
#define BCDB_QUERY_VALIDATE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "query/ast.h"
#include "relational/schema.h"

namespace bcdb {

/// Why a query cannot be compiled.
enum class DefectKind {
  kNoPositiveAtoms,       // The body has no positive atom.
  kUnknownRelation,       // An atom names a relation not in the catalog.
  kArityMismatch,         // An atom's arity differs from its relation's.
  kConstantTypeMismatch,  // A constant does not fit its attribute's type.
  kUnsafeVariable,        // A variable of a negated atom, comparison,
                          // aggregate or head occurs in no positive atom.
  kBadAggregate,          // Head variables beside an aggregate, a
                          // non-variable aggregate argument, a variable
                          // threshold, a value aggregate without exactly
                          // one argument, or a sum over a STRING attribute.
  kBadHead,               // A head term that is not a variable.
};

/// One defect and where it sits: the atom occurrence it is about (unknown
/// relation, arity), the offending term (unsafe variable, head term), both
/// (a constant in an atom) or neither (no positive atoms, aggregate
/// shape).
struct QueryDefect {
  DefectKind kind;
  std::string message;
  /// The atom's relation name, empty when the defect is not about an atom.
  std::string relation;
  /// How many earlier atoms (positive atoms first, then negated ones) name
  /// the same relation: the atom is that name's occurrence-th appearance.
  std::size_t occurrence = 0;
  std::optional<Term> term;
};

/// Every defect that makes CompiledQuery::Compile reject `q` against
/// `catalog`, in a fixed order: no positive atoms; then per atom (positive
/// atoms first) an unknown relation, or an arity mismatch, or each constant
/// of the wrong type; then unsafe variables of negated atoms, comparisons,
/// the aggregate and the head, with non-variable head terms among them;
/// then the aggregate's shape. Empty iff `q` compiles. Parameters (`$name`)
/// count as bound and their types are checked per binding
/// (CompiledQuery::ValidateBinding), so a template validates as its
/// compiled class plan does.
std::vector<QueryDefect> ValidateQuery(const DenialConstraint& q,
                                       const Catalog& catalog);

/// The type rule for a constant (or a parameter's value) at attribute `i`:
/// its own type, or any numeric value at a numeric attribute.
bool FitsAttribute(const Value& v, const RelationSchema& schema,
                   std::size_t i);

}  // namespace bcdb

#endif  // BCDB_QUERY_VALIDATE_H_
