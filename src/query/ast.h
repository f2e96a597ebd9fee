#ifndef BCDB_QUERY_AST_H_
#define BCDB_QUERY_AST_H_

#include <concepts>
#include <cstddef>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "relational/value.h"

namespace bcdb {

/// A term in a query body: a named variable, a constant value, or a named
/// constant placeholder (`$name`, a ConstraintTemplate parameter).
///
/// ConstraintTemplate::Instantiate substitutes parameters with constants,
/// and ConstraintTemplate::Generalized turns them into head variables.
/// CompiledQuery::Compile compiles a raw parameter to a slot that the
/// binding passed to Evaluate fills; entry points that evaluate without a
/// binding reject it ("bind it first").
class Term {
 public:
  static Term Var(std::string name) {
    Term t;
    t.kind_ = Kind::kVar;
    t.name_ = std::move(name);
    return t;
  }
  static Term Const(Value value) {
    Term t;
    t.kind_ = Kind::kConst;
    t.value_ = std::move(value);
    return t;
  }
  static Term Param(std::string name) {
    Term t;
    t.kind_ = Kind::kParam;
    t.name_ = std::move(name);
    return t;
  }
  /// Shorthand constant constructors.
  static Term Const(std::int64_t v) { return Const(Value::Int(v)); }
  static Term Const(const char* v) { return Const(Value::Str(v)); }
  static Term Const(std::string v) { return Const(Value::Str(std::move(v))); }

  bool is_variable() const { return kind_ == Kind::kVar; }
  bool is_param() const { return kind_ == Kind::kParam; }
  bool is_constant() const { return kind_ == Kind::kConst; }
  /// Requires is_variable() || is_param().
  const std::string& name() const { return name_; }
  /// Requires is_constant().
  const Value& value() const { return value_; }

  bool operator==(const Term& other) const {
    if (kind_ != other.kind_) return false;
    return kind_ == Kind::kConst ? value_ == other.value_
                                 : name_ == other.name_;
  }

  std::string ToString() const {
    switch (kind_) {
      case Kind::kVar:
        return name_;
      case Kind::kParam:
        return "$" + name_;
      case Kind::kConst:
        break;
    }
    return value_.ToString();
  }

 private:
  enum class Kind { kConst, kVar, kParam };

  Kind kind_ = Kind::kConst;
  std::string name_;
  Value value_;
};

/// A relational atom `R(t1, ..., tn)`, possibly negated.
struct Atom {
  std::string relation;
  std::vector<Term> args;
  bool negated = false;

  bool operator==(const Atom&) const = default;
  std::string ToString() const;
};

/// Comparison operators usable in query bodies and aggregate heads.
enum class ComparisonOp {
  kEq,
  kNe,
  kLt,
  kGt,
  kLe,
  kGe,
};

const char* ComparisonOpToString(ComparisonOp op);

/// Returns whether `lhs op rhs` holds under Value ordering.
bool EvaluateComparison(const Value& lhs, ComparisonOp op, const Value& rhs);

/// A comparison `t1 op t2` between terms of the body.
struct Comparison {
  Term lhs;
  ComparisonOp op;
  Term rhs;

  bool operator==(const Comparison&) const = default;
  std::string ToString() const;
};

/// Aggregate functions of the paper: count, cntd (count distinct), sum, max
/// (min is the symmetric case noted after Theorem 2).
enum class AggregateFunction {
  kCount,
  kCountDistinct,
  kSum,
  kMax,
  kMin,
};

const char* AggregateFunctionToString(AggregateFunction fn);

/// The head `[q(α(x̄)) ← body] θ c` of an aggregate denial constraint.
struct AggregateSpec {
  AggregateFunction fn = AggregateFunction::kCount;
  /// The tuple x̄ of variables aggregated over (may be empty for count).
  std::vector<Term> args;
  ComparisonOp op = ComparisonOp::kGt;
  /// The constant c, or a template parameter standing for it.
  Term threshold;

  bool operator==(const AggregateSpec&) const = default;
};

/// A denial constraint: a Boolean (possibly aggregate) query `q` that the
/// user wants to evaluate to false over *every* possible world.
///
/// A plain constraint `q() ← P, N, C` holds positive atoms `P`, negated
/// atoms `N` and comparisons `C`; an aggregate constraint adds the
/// `aggregate` head. Structural validation (safety, schema binding) is
/// ValidateQuery (query/validate.h), which CompiledQuery::Compile and the
/// static analyzer share.
struct DenialConstraint {
  std::string name = "q";
  /// Head variables. Empty for Boolean queries (denial constraints proper);
  /// non-empty heads turn the query into an answer-producing conjunctive
  /// query, used by the certain/possible-answer machinery. Mutually
  /// exclusive with `aggregate`.
  std::vector<Term> head_vars;
  std::vector<Atom> positive_atoms;
  std::vector<Atom> negated_atoms;
  std::vector<Comparison> comparisons;
  std::optional<AggregateSpec> aggregate;

  bool is_aggregate() const { return aggregate.has_value(); }
  bool is_positive() const { return negated_atoms.empty(); }
  bool is_boolean() const { return head_vars.empty(); }

  /// A query's identity is its syntax tree: constants compare by Value
  /// equality (so `4` and `4.0` are equal), everything else exactly.
  bool operator==(const DenialConstraint&) const = default;

  /// Datalog-ish rendering, for display only. ParseDenialConstraint reads
  /// the rendering of any query it can produce back to an equal query, but
  /// an API-built string constant may hold a quote and render like other
  /// terms, so text is never an identity: compare queries with ==.
  std::string ToString() const;
};

/// The one walk over a query's terms, in the order that fixes the parameter
/// order: positive atoms, negated atoms, comparisons (lhs before rhs),
/// aggregate arguments, then the aggregate threshold. Head terms are not
/// visited. `fn` gets a `Term&` from a mutable query and a `const Term&`
/// from a const one.
template <typename Query, typename Fn>
  requires std::same_as<std::remove_const_t<Query>, DenialConstraint>
void ForEachTerm(Query& q, Fn&& fn) {
  for (auto& atom : q.positive_atoms) {
    for (auto& term : atom.args) fn(term);
  }
  for (auto& atom : q.negated_atoms) {
    for (auto& term : atom.args) fn(term);
  }
  for (auto& cmp : q.comparisons) {
    fn(cmp.lhs);
    fn(cmp.rhs);
  }
  if (!q.aggregate.has_value()) return;
  for (auto& term : q.aggregate->args) fn(term);
  fn(q.aggregate->threshold);
}

/// The parameter order: the name of each template parameter of `q`, once,
/// by first occurrence in ForEachTerm order. A binding's value i, a
/// compiled plan's parameter slot i and ConstraintTemplate::param_names()[i]
/// all stand for ParamNames(q)[i]. Empty for a ground query.
std::vector<std::string> ParamNames(const DenialConstraint& q);

/// A hash consistent with DenialConstraint's ==: it mixes the query's name,
/// relation names and terms (a constant by Value::Hash, so `4` and `4.0`
/// agree) and leaves the operators to ==.
struct QueryHash {
  std::size_t operator()(const DenialConstraint& q) const;
};

}  // namespace bcdb

#endif  // BCDB_QUERY_AST_H_
