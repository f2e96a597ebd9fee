#ifndef BCDB_QUERY_TEMPLATE_H_
#define BCDB_QUERY_TEMPLATE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "query/ast.h"
#include "util/status.h"

namespace bcdb {

struct CanonicalizedConstraint;

/// A denial constraint with named constant placeholders (`$name`).
///
/// Templates are the unit of *class* registration in the monitor: millions of
/// structurally identical constraints differing only in constants share one
/// template and are registered as per-binding instances via
/// `ConstraintMonitor::Bind`. `Instantiate` substitutes a binding (one Value
/// per parameter, in `param_names()` order, which is ParamNames of the
/// constraint) to recover an ordinary ground constraint; `Generalized` turns
/// parameters into head variables so the whole class can be evaluated as a
/// single answer-producing query.
class ConstraintTemplate {
 public:
  /// An empty template (no constraint, no parameters); assign a real one
  /// from Create/Parse/Canonicalize before use.
  ConstraintTemplate() = default;

  /// Wraps a parsed constraint; its parameter order is ParamNames
  /// (query/ast.h).
  static StatusOr<ConstraintTemplate> Create(DenialConstraint constraint);

  /// Parses `text` (which may contain `$name` placeholders) and Creates.
  static StatusOr<ConstraintTemplate> Parse(std::string_view text);

  /// Canonicalizes a ground constraint into a template plus binding, in one
  /// pass over a copy: each constant, the aggregate threshold included,
  /// becomes a parameter `$p<i>` (equal constants share one, so `R(1, 1)`
  /// and `R(1, 2)` canonicalize into *different* templates — constant
  /// coupling is part of the structure), each variable becomes `v<i>` (body
  /// first, then the head) and the query is named `q`. Two ground
  /// constraints canonicalize to equal templates exactly when they are
  /// equal up to constants and naming, so the canonical template is its own
  /// class key. Constraints that already contain parameters are rejected.
  static StatusOr<CanonicalizedConstraint> Canonicalize(
      DenialConstraint constraint);

  /// Substitutes `binding[i]` for every occurrence of parameter
  /// `param_names()[i]`, yielding a ground constraint.
  StatusOr<DenialConstraint> Instantiate(const std::vector<Value>& binding) const;

  /// The template α-renamed as Canonicalize renames (query name -> "q",
  /// variables -> v0, v1, ..., parameters -> $p0, $p1, ..., by first
  /// occurrence), rendered for display (bcdb_lint's class key).
  std::string CanonicalSkeleton() const;

  /// Whether the parameters can be projected into head variables, so one
  /// answer enumeration of Generalized() settles many bindings at once:
  /// Boolean, non-aggregate, no negated atoms, at least one parameter, and
  /// every parameter occurs in some positive atom.
  bool projectable() const { return projectable_; }

  /// The parameterized constraint with every parameter `p` replaced by a
  /// fresh variable `$p`, and head variables `$p0, $p1, ...` in
  /// `param_names()` order. Only meaningful when `projectable()`.
  DenialConstraint Generalized() const;

  const DenialConstraint& constraint() const { return constraint_; }
  const std::vector<std::string>& param_names() const { return param_names_; }
  std::size_t num_params() const { return param_names_.size(); }

 private:
  DenialConstraint constraint_;
  std::vector<std::string> param_names_;
  bool projectable_ = false;
};

/// Result of ConstraintTemplate::Canonicalize.
struct CanonicalizedConstraint {
  ConstraintTemplate tmpl;
  /// The extracted constants, in `tmpl.param_names()` order.
  std::vector<Value> binding;
};

}  // namespace bcdb

#endif  // BCDB_QUERY_TEMPLATE_H_
