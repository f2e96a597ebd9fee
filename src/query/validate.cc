#include "query/validate.h"

#include <algorithm>
#include <map>

namespace bcdb {

bool FitsAttribute(const Value& v, const RelationSchema& schema,
                   std::size_t i) {
  const ValueType expected = schema.attribute(i).type;
  return v.type() == expected ||
         (v.IsNumeric() &&
          (expected == ValueType::kInt || expected == ValueType::kReal));
}

std::vector<QueryDefect> ValidateQuery(const DenialConstraint& q,
                                       const Catalog& catalog) {
  std::vector<QueryDefect> defects;
  auto add = [&](DefectKind kind, std::string message,
                 std::optional<Term> term = std::nullopt,
                 const Atom* atom = nullptr, std::size_t occurrence = 0) {
    defects.push_back(QueryDefect{kind, std::move(message),
                                  atom != nullptr ? atom->relation : "",
                                  occurrence, std::move(term)});
  };

  // --- Schema binding: relation, arity, constant types per atom. ---
  if (q.positive_atoms.empty()) {
    add(DefectKind::kNoPositiveAtoms,
        "query '" + q.name + "' has no positive atoms");
  }
  std::map<std::string, std::size_t> occurrences;
  for (const std::vector<Atom>* atoms :
       {&q.positive_atoms, &q.negated_atoms}) {
    for (const Atom& atom : *atoms) {
      const std::size_t occurrence = occurrences[atom.relation]++;
      StatusOr<std::size_t> rel_id = catalog.RelationId(atom.relation);
      if (!rel_id.ok()) {
        add(DefectKind::kUnknownRelation,
            "relation '" + atom.relation + "' is not in the catalog",
            std::nullopt, &atom, occurrence);
        continue;
      }
      const RelationSchema& schema = catalog.schema(*rel_id);
      if (atom.args.size() != schema.arity()) {
        add(DefectKind::kArityMismatch,
            "atom " + atom.ToString() + " has arity " +
                std::to_string(atom.args.size()) + " but relation " +
                schema.name() + " has arity " +
                std::to_string(schema.arity()),
            std::nullopt, &atom, occurrence);
        continue;
      }
      for (std::size_t i = 0; i < atom.args.size(); ++i) {
        const Term& term = atom.args[i];
        if (!term.is_constant() || FitsAttribute(term.value(), schema, i)) {
          continue;
        }
        add(DefectKind::kConstantTypeMismatch,
            "constant " + term.value().ToString() + " at position " +
                std::to_string(i) + " of atom " + atom.ToString() +
                " has wrong type (attribute " + schema.attribute(i).name +
                " is " + ValueTypeToString(schema.attribute(i).type) + ")",
            term, &atom, occurrence);
      }
    }
  }

  // --- Safety (range restriction) and head terms. ---
  std::vector<std::string> positive_vars;
  for (const Atom& atom : q.positive_atoms) {
    for (const Term& term : atom.args) {
      if (term.is_variable()) positive_vars.push_back(term.name());
    }
  }
  // Constants and parameters are bound before the first join step.
  auto unbound = [&](const Term& term) {
    return term.is_variable() &&
           std::find(positive_vars.begin(), positive_vars.end(),
                     term.name()) == positive_vars.end();
  };
  auto flag = [&](const Term& term, const std::string& where) {
    add(DefectKind::kUnsafeVariable,
        "unsafe " + where + ": variable '" + term.name() +
            "' does not occur in any positive atom",
        term);
  };
  for (const Atom& atom : q.negated_atoms) {
    for (const Term& term : atom.args) {
      if (unbound(term)) flag(term, "negated atom " + atom.ToString());
    }
  }
  for (const Comparison& cmp : q.comparisons) {
    if (unbound(cmp.lhs)) flag(cmp.lhs, "comparison " + cmp.ToString());
    if (unbound(cmp.rhs)) flag(cmp.rhs, "comparison " + cmp.ToString());
  }
  if (q.aggregate.has_value()) {
    for (const Term& term : q.aggregate->args) {
      if (unbound(term)) flag(term, "aggregate head");
    }
  }
  for (const Term& term : q.head_vars) {
    if (!term.is_variable()) {
      add(DefectKind::kBadHead,
          "head argument " + term.ToString() + " must be a variable", term);
    } else if (unbound(term)) {
      flag(term, "head");
    }
  }

  // --- Aggregate shape. ---
  if (q.aggregate.has_value()) {
    const AggregateSpec& spec = *q.aggregate;
    if (!q.head_vars.empty()) {
      add(DefectKind::kBadAggregate,
          "a query cannot have both head variables and an aggregate");
    }
    for (const Term& term : spec.args) {
      if (!term.is_variable()) {
        add(DefectKind::kBadAggregate,
            "aggregate argument " + term.ToString() + " must be a variable",
            term);
      }
    }
    if (spec.threshold.is_variable()) {
      add(DefectKind::kBadAggregate,
          "aggregate threshold " + spec.threshold.name() +
              " must be a constant or a parameter",
          spec.threshold);
    }
    const bool value_agg = spec.fn == AggregateFunction::kSum ||
                           spec.fn == AggregateFunction::kMax ||
                           spec.fn == AggregateFunction::kMin;
    if (value_agg && spec.args.size() != 1) {
      add(DefectKind::kBadAggregate,
          std::string(AggregateFunctionToString(spec.fn)) +
              " aggregates take exactly one variable");
    }
    // A sum adds its variable's values, so no positive atom may bind it to
    // a STRING attribute.
    const bool sums = spec.fn == AggregateFunction::kSum &&
                      spec.args.size() == 1 && spec.args[0].is_variable();
    for (const Atom& atom : q.positive_atoms) {
      StatusOr<std::size_t> rel_id = catalog.RelationId(atom.relation);
      if (!sums || !rel_id.ok()) continue;
      const RelationSchema& schema = catalog.schema(*rel_id);
      for (std::size_t i = 0; i < std::min(atom.args.size(), schema.arity());
           ++i) {
        if (atom.args[i] == spec.args[0] &&
            schema.attribute(i).type == ValueType::kString) {
          add(DefectKind::kBadAggregate,
              "sum aggregates variable '" + spec.args[0].name() +
                  "', which is the STRING attribute " +
                  schema.attribute(i).name + " of atom " + atom.ToString(),
              spec.args[0]);
        }
      }
    }
  }
  return defects;
}

}  // namespace bcdb
