#include "query/template.h"

#include <map>
#include <utility>

#include "query/parser.h"

namespace bcdb {

namespace {

/// Calls `fn(term, site)` for every term of the constraint in the fixed
/// template traversal order; the aggregate threshold comes last.
template <typename Fn>
void ForEachTerm(DenialConstraint& q, Fn&& fn) {
  for (std::size_t a = 0; a < q.positive_atoms.size(); ++a) {
    for (std::size_t i = 0; i < q.positive_atoms[a].args.size(); ++i) {
      fn(q.positive_atoms[a].args[i],
         ParamSite{ParamSite::Kind::kPositiveAtom, a, i});
    }
  }
  for (std::size_t a = 0; a < q.negated_atoms.size(); ++a) {
    for (std::size_t i = 0; i < q.negated_atoms[a].args.size(); ++i) {
      fn(q.negated_atoms[a].args[i],
         ParamSite{ParamSite::Kind::kNegatedAtom, a, i});
    }
  }
  for (std::size_t c = 0; c < q.comparisons.size(); ++c) {
    fn(q.comparisons[c].lhs, ParamSite{ParamSite::Kind::kComparison, c, 0});
    fn(q.comparisons[c].rhs, ParamSite{ParamSite::Kind::kComparison, c, 1});
  }
  if (!q.aggregate.has_value()) return;
  AggregateSpec& spec = *q.aggregate;
  for (std::size_t i = 0; i < spec.args.size(); ++i) {
    fn(spec.args[i], ParamSite{ParamSite::Kind::kAggregateArg, 0, i});
  }
  fn(spec.threshold, ParamSite{ParamSite::Kind::kAggregateThreshold, 0, 0});
}

}  // namespace

StatusOr<ConstraintTemplate> ConstraintTemplate::Create(
    DenialConstraint constraint) {
  ConstraintTemplate tmpl;
  std::map<std::string, std::size_t> index_of;
  auto visit = [&](const Term& term, const ParamSite& site) {
    if (!term.is_param()) return;
    auto [it, inserted] =
        index_of.emplace(term.name(), tmpl.param_names_.size());
    if (inserted) {
      tmpl.param_names_.push_back(term.name());
      tmpl.param_sites_.emplace_back();
    }
    tmpl.param_sites_[it->second].push_back(site);
  };
  ForEachTerm(constraint, visit);
  for (const Term& head : constraint.head_vars) {
    if (head.is_param()) {
      return Status::InvalidArgument(
          "template parameter '$" + head.name() +
          "' cannot appear as a head variable");
    }
  }

  // Projectable: Boolean positive non-aggregate query whose every parameter
  // occurs in a positive atom (so it can be projected into the head).
  bool all_params_in_positive = !tmpl.param_names_.empty();
  for (const std::vector<ParamSite>& sites : tmpl.param_sites_) {
    bool in_positive = false;
    for (const ParamSite& site : sites) {
      if (site.kind == ParamSite::Kind::kPositiveAtom) in_positive = true;
    }
    if (!in_positive) all_params_in_positive = false;
  }
  tmpl.projectable_ = constraint.is_boolean() && !constraint.is_aggregate() &&
                      constraint.is_positive() && all_params_in_positive;
  tmpl.constraint_ = std::move(constraint);
  return tmpl;
}

StatusOr<ConstraintTemplate> ConstraintTemplate::Parse(std::string_view text) {
  StatusOr<DenialConstraint> parsed = ParseDenialConstraint(text);
  if (!parsed.ok()) return parsed.status();
  return Create(std::move(*parsed));
}

StatusOr<CanonicalizedConstraint> ConstraintTemplate::Canonicalize(
    const DenialConstraint& constraint) {
  DenialConstraint rewritten = constraint;
  std::map<Value, std::size_t> param_of;
  std::vector<Value> binding;
  Status bad = Status::OK();
  ForEachTerm(rewritten, [&](Term& term, const ParamSite&) {
    if (term.is_param()) {
      if (bad.ok()) {
        bad = Status::InvalidArgument(
            "cannot canonicalize a constraint that already has parameters "
            "('$" +
            term.name() + "')");
      }
      return;
    }
    if (term.is_variable()) return;
    auto [it, inserted] = param_of.emplace(term.value(), binding.size());
    if (inserted) binding.push_back(term.value());
    term = Term::Param("b" + std::to_string(it->second));
  });
  if (!bad.ok()) return bad;
  StatusOr<ConstraintTemplate> tmpl = Create(std::move(rewritten));
  if (!tmpl.ok()) return tmpl.status();
  CanonicalizedConstraint result;
  result.tmpl = std::move(*tmpl);
  result.binding = std::move(binding);
  return result;
}

StatusOr<DenialConstraint> ConstraintTemplate::Instantiate(
    const std::vector<Value>& binding) const {
  if (binding.size() != param_names_.size()) {
    return Status::InvalidArgument(
        "binding has " + std::to_string(binding.size()) +
        " values but template has " + std::to_string(param_names_.size()) +
        " parameters");
  }
  DenialConstraint result = constraint_;
  for (std::size_t p = 0; p < param_sites_.size(); ++p) {
    for (const ParamSite& site : param_sites_[p]) {
      switch (site.kind) {
        case ParamSite::Kind::kPositiveAtom:
          result.positive_atoms[site.element_index].args[site.arg_index] =
              Term::Const(binding[p]);
          break;
        case ParamSite::Kind::kNegatedAtom:
          result.negated_atoms[site.element_index].args[site.arg_index] =
              Term::Const(binding[p]);
          break;
        case ParamSite::Kind::kComparison: {
          Comparison& cmp = result.comparisons[site.element_index];
          (site.arg_index == 0 ? cmp.lhs : cmp.rhs) = Term::Const(binding[p]);
          break;
        }
        case ParamSite::Kind::kAggregateArg:
          result.aggregate->args[site.arg_index] = Term::Const(binding[p]);
          break;
        case ParamSite::Kind::kAggregateThreshold:
          result.aggregate->threshold = Term::Const(binding[p]);
          break;
      }
    }
  }
  return result;
}

std::string ConstraintTemplate::CanonicalSkeleton() const {
  DenialConstraint renamed = constraint_;
  std::map<std::string, std::string> var_of;
  std::map<std::string, std::string> param_of;
  auto rename = [&](Term& term, const ParamSite&) {
    if (term.is_variable()) {
      auto [it, inserted] = var_of.emplace(
          term.name(), "v" + std::to_string(var_of.size()));
      term = Term::Var(it->second);
    } else if (term.is_param()) {
      auto [it, inserted] = param_of.emplace(
          term.name(), "p" + std::to_string(param_of.size()));
      term = Term::Param(it->second);
    }
  };
  ForEachTerm(renamed, rename);
  for (Term& head : renamed.head_vars) {
    if (!head.is_variable()) continue;
    auto [it, inserted] =
        var_of.emplace(head.name(), "v" + std::to_string(var_of.size()));
    head = Term::Var(it->second);
  }
  renamed.name = "q";
  return renamed.ToString();
}

DenialConstraint ConstraintTemplate::Generalized() const {
  DenialConstraint result = constraint_;
  ForEachTerm(result, [&](Term& term, const ParamSite&) {
    if (term.is_param()) term = Term::Var("$" + term.name());
  });
  result.head_vars.clear();
  result.head_vars.reserve(param_names_.size());
  for (const std::string& name : param_names_) {
    result.head_vars.push_back(Term::Var("$" + name));
  }
  return result;
}

}  // namespace bcdb
