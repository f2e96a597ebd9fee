#include "query/analysis.h"

#include <map>

#include "util/union_find.h"

namespace bcdb {

namespace {

/// Assigns one node id per term equivalence class: variables merged by
/// `=`-comparisons share a class; equal constant values share a class. A
/// template parameter is a variable named `$name` (its value is unknown, so
/// it shares a class only with itself and what `=` merges it with).
class TermClasses {
 public:
  explicit TermClasses(const DenialConstraint& q) {
    // Intern every term of the positive atoms.
    for (const Atom& atom : q.positive_atoms) {
      for (const Term& term : atom.args) Intern(term);
    }
    // Merge classes implied by equality comparisons (both sides must be
    // interned; sides that never occur in positive atoms are unsafe and are
    // rejected later by compilation — here we just skip them).
    for (const Comparison& cmp : q.comparisons) {
      if (cmp.op != ComparisonOp::kEq) continue;
      const int a = TryIntern(cmp.lhs);
      const int b = TryIntern(cmp.rhs);
      if (a >= 0 && b >= 0) merges_.emplace_back(a, b);
    }
  }

  std::size_t num_nodes() const { return next_id_; }

  /// Union-find over the interned nodes with the `=`-merges applied.
  UnionFind BuildUnionFind() const {
    UnionFind uf(next_id_);
    for (const auto& [a, b] : merges_) uf.Union(a, b);
    return uf;
  }

  /// Node id of `term`; requires the term to occur in a positive atom.
  std::size_t NodeOf(const Term& term) const {
    if (term.is_variable() || term.is_param()) return var_ids_.at(NameOf(term));
    return const_ids_.at(term.value());
  }

 private:
  static std::string NameOf(const Term& term) {
    return term.is_param() ? "$" + term.name() : term.name();
  }

  void Intern(const Term& term) { (void)TryIntern(term); }

  int TryIntern(const Term& term) {
    if (term.is_variable() || term.is_param()) {
      auto [it, inserted] = var_ids_.emplace(NameOf(term), next_id_);
      if (!inserted) return static_cast<int>(it->second);
      return static_cast<int>(next_id_++);
    }
    auto it = const_ids_.find(term.value());
    if (it != const_ids_.end()) return static_cast<int>(it->second);
    const_ids_.emplace(term.value(), next_id_);
    return static_cast<int>(next_id_++);
  }

  std::map<std::string, std::size_t> var_ids_;
  std::map<Value, std::size_t> const_ids_;
  std::vector<std::pair<std::size_t, std::size_t>> merges_;
  std::size_t next_id_ = 0;
};

/// Is every (lhs, rhs) position pair of `sub`, swapped when `swap`, a pair
/// of `super`?
bool PairsSubset(const EqualityConstraint& sub, bool swap,
                 const EqualityConstraint& super) {
  for (std::size_t k = 0; k < sub.lhs_positions.size(); ++k) {
    const std::size_t lhs = swap ? sub.rhs_positions[k] : sub.lhs_positions[k];
    const std::size_t rhs = swap ? sub.lhs_positions[k] : sub.rhs_positions[k];
    bool found = false;
    for (std::size_t m = 0; m < super.lhs_positions.size() && !found; ++m) {
      found = super.lhs_positions[m] == lhs && super.rhs_positions[m] == rhs;
    }
    if (!found) return false;
  }
  return true;
}

bool IsGe(ComparisonOp op) {
  return op == ComparisonOp::kGt || op == ComparisonOp::kGe;
}
bool IsLe(ComparisonOp op) {
  return op == ComparisonOp::kLt || op == ComparisonOp::kLe;
}

/// True if the summed variable provably only takes non-negative values:
/// some positive-atom occurrence sits at an attribute with the non_negative
/// schema hint.
bool SumArgNonNegative(const DenialConstraint& q, const Catalog& catalog,
                       const std::string& var_name) {
  for (const Atom& atom : q.positive_atoms) {
    StatusOr<std::size_t> rel_id = catalog.RelationId(atom.relation);
    if (!rel_id.ok()) continue;
    const RelationSchema& schema = catalog.schema(*rel_id);
    if (atom.args.size() != schema.arity()) continue;
    for (std::size_t i = 0; i < atom.args.size(); ++i) {
      if (atom.args[i].is_variable() && atom.args[i].name() == var_name &&
          schema.attribute(i).non_negative) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

QueryAnalysis AnalyzeQuery(const DenialConstraint& q, const Catalog& catalog) {
  QueryAnalysis result;

  // --- Monotonicity. ---
  if (!q.negated_atoms.empty()) {
    result.monotone = false;
    result.monotone_reason = "negated atoms can turn true into false";
  } else if (!q.is_aggregate()) {
    result.monotone = true;
    result.monotone_reason = "positive conjunctive query";
  } else {
    const AggregateSpec& spec = *q.aggregate;
    switch (spec.fn) {
      case AggregateFunction::kCount:
      case AggregateFunction::kCountDistinct:
      case AggregateFunction::kMax:
        result.monotone = IsGe(spec.op);
        result.monotone_reason =
            result.monotone
                ? "growing aggregate compared with > / >="
                : "aggregate can cross the threshold downward";
        break;
      case AggregateFunction::kSum:
        if (IsGe(spec.op) && spec.args.size() == 1 &&
            spec.args[0].is_variable() &&
            SumArgNonNegative(q, catalog, spec.args[0].name())) {
          result.monotone = true;
          result.monotone_reason = "sum over non-negative attribute with > / >=";
        } else {
          result.monotone = false;
          result.monotone_reason =
              "sum not provably monotone (negative values or op)";
        }
        break;
      case AggregateFunction::kMin:
        result.monotone = IsLe(spec.op);
        result.monotone_reason =
            result.monotone ? "min only decreases; compared with < / <="
                            : "min aggregate with non-downward comparison";
        break;
    }
  }

  // --- Connectivity (non-aggregate only; paper Section 6.2). ---
  if (!q.is_aggregate() && !q.positive_atoms.empty()) {
    TermClasses classes(q);
    UnionFind uf = classes.BuildUnionFind();
    // Atoms connect all their terms pairwise; chain-union suffices.
    for (const Atom& atom : q.positive_atoms) {
      for (std::size_t i = 1; i < atom.args.size(); ++i) {
        uf.Union(classes.NodeOf(atom.args[0]), classes.NodeOf(atom.args[i]));
      }
    }
    // Connected iff all terms of all atoms share one class. (A 0-ary atom
    // would break connectivity with other atoms, matching the definition.)
    bool connected = true;
    bool have_root = false;
    std::size_t root = 0;
    for (const Atom& atom : q.positive_atoms) {
      if (atom.args.empty()) {
        connected = q.positive_atoms.size() == 1;
        break;
      }
      const std::size_t r = uf.Find(classes.NodeOf(atom.args[0]));
      if (!have_root) {
        root = r;
        have_root = true;
      } else if (r != root) {
        connected = false;
        break;
      }
    }
    result.connected = connected;
  }

  return result;
}

bool Implies(const EqualityConstraint& implier,
             const EqualityConstraint& implied) {
  if (implier.lhs_relation_id == implied.lhs_relation_id &&
      implier.rhs_relation_id == implied.rhs_relation_id &&
      PairsSubset(implier, /*swap=*/false, implied)) {
    return true;
  }
  return implier.lhs_relation_id == implied.rhs_relation_id &&
         implier.rhs_relation_id == implied.lhs_relation_id &&
         PairsSubset(implier, /*swap=*/true, implied);
}

std::vector<EqualityConstraint> EqualitiesFromConstraints(
    const ConstraintSet& constraints) {
  std::vector<EqualityConstraint> result;
  result.reserve(constraints.inds().size());
  for (const InclusionDependency& ind : constraints.inds()) {
    result.push_back(EqualityConstraint{
        ind.lhs_relation_id(), ind.rhs_relation_id(), ind.lhs_positions(),
        ind.rhs_positions()});
  }
  return result;
}

StatusOr<std::vector<EqualityConstraint>> EqualitiesFromQuery(
    const DenialConstraint& q, const Catalog& catalog) {
  TermClasses classes(q);
  UnionFind uf = classes.BuildUnionFind();

  std::vector<std::size_t> relation_ids(q.positive_atoms.size());
  for (std::size_t a = 0; a < q.positive_atoms.size(); ++a) {
    StatusOr<std::size_t> rel_id =
        catalog.RelationId(q.positive_atoms[a].relation);
    if (!rel_id.ok()) return rel_id.status();
    relation_ids[a] = *rel_id;
  }

  std::vector<EqualityConstraint> pairwise;
  for (std::size_t a = 0; a < q.positive_atoms.size(); ++a) {
    for (std::size_t b = a + 1; b < q.positive_atoms.size(); ++b) {
      const Atom& atom_a = q.positive_atoms[a];
      const Atom& atom_b = q.positive_atoms[b];
      // Greedy maximal matching of equal-class positions with distinct
      // indices on both sides (paper: "maximal sequence of distinct
      // indices"; any valid matching is implied by assignment compatibility
      // and hence sound).
      std::vector<bool> used_b(atom_b.args.size(), false);
      EqualityConstraint eq;
      eq.lhs_relation_id = relation_ids[a];
      eq.rhs_relation_id = relation_ids[b];
      for (std::size_t i = 0; i < atom_a.args.size(); ++i) {
        const std::size_t class_a = uf.Find(classes.NodeOf(atom_a.args[i]));
        for (std::size_t j = 0; j < atom_b.args.size(); ++j) {
          if (used_b[j]) continue;
          if (uf.Find(classes.NodeOf(atom_b.args[j])) == class_a) {
            eq.lhs_positions.push_back(i);
            eq.rhs_positions.push_back(j);
            used_b[j] = true;
            break;
          }
        }
      }
      if (!eq.lhs_positions.empty()) pairwise.push_back(std::move(eq));
    }
  }

  // A k-atom path or star repeats a handful of positional equalities O(k²)
  // times. Drop every equality another one implies strictly, and every one
  // equivalent to an earlier one: implication is a preorder, so the first
  // member of each minimal class survives and implies all that were dropped.
  std::vector<EqualityConstraint> result;
  for (std::size_t i = 0; i < pairwise.size(); ++i) {
    bool redundant = false;
    for (std::size_t j = 0; j < pairwise.size() && !redundant; ++j) {
      redundant = j != i && Implies(pairwise[j], pairwise[i]) &&
                  (j < i || !Implies(pairwise[i], pairwise[j]));
    }
    if (!redundant) result.push_back(pairwise[i]);
  }
  return result;
}

}  // namespace bcdb
