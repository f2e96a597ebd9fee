#include "query/template.h"

#include <algorithm>
#include <utility>

#include "query/parser.h"

namespace bcdb {

namespace {

/// The one α-renaming pass: names the query `q`, renames each variable to
/// `v<i>` (body first, in ForEachTerm order, then the head) and each
/// parameter to `$p<i>`, by first occurrence. With `lifted` non-null it also
/// lifts each constant of the body to a parameter `$p<i>`, equal values
/// sharing one, and appends the value to `*lifted`; the query must then hold
/// no parameter, so the two numberings never meet.
void AlphaRename(DenialConstraint& q, std::vector<Value>* lifted) {
  std::vector<std::string> vars;
  std::vector<std::string> params;
  auto index_of = [](std::vector<std::string>& seen, const std::string& name) {
    const auto it = std::find(seen.begin(), seen.end(), name);
    if (it != seen.end()) return static_cast<std::size_t>(it - seen.begin());
    seen.push_back(name);
    return seen.size() - 1;
  };
  auto rename_var = [&](Term& term) {
    term = Term::Var("v" + std::to_string(index_of(vars, term.name())));
  };
  ForEachTerm(q, [&](Term& term) {
    if (term.is_variable()) {
      rename_var(term);
    } else if (term.is_param()) {
      term = Term::Param("p" + std::to_string(index_of(params, term.name())));
    } else if (lifted != nullptr) {
      auto it = std::find(lifted->begin(), lifted->end(), term.value());
      if (it == lifted->end()) it = lifted->insert(it, term.value());
      term = Term::Param("p" + std::to_string(it - lifted->begin()));
    }
  });
  for (Term& head : q.head_vars) {
    if (head.is_variable()) rename_var(head);
  }
  q.name = "q";
}

}  // namespace

StatusOr<ConstraintTemplate> ConstraintTemplate::Create(
    DenialConstraint constraint) {
  for (const Term& head : constraint.head_vars) {
    if (head.is_param()) {
      return Status::InvalidArgument(
          "template parameter '$" + head.name() +
          "' cannot appear as a head variable");
    }
  }
  ConstraintTemplate tmpl;
  tmpl.param_names_ = ParamNames(constraint);

  // Projectable: Boolean positive non-aggregate query whose every parameter
  // occurs in a positive atom (so it can be projected into the head).
  auto in_positive_atom = [&](const std::string& name) {
    return std::any_of(
        constraint.positive_atoms.begin(), constraint.positive_atoms.end(),
        [&](const Atom& atom) {
          return std::any_of(atom.args.begin(), atom.args.end(),
                             [&](const Term& term) {
                               return term.is_param() && term.name() == name;
                             });
        });
  };
  tmpl.projectable_ = constraint.is_boolean() && !constraint.is_aggregate() &&
                      constraint.is_positive() &&
                      !tmpl.param_names_.empty() &&
                      std::all_of(tmpl.param_names_.begin(),
                                  tmpl.param_names_.end(), in_positive_atom);
  tmpl.constraint_ = std::move(constraint);
  return tmpl;
}

StatusOr<ConstraintTemplate> ConstraintTemplate::Parse(std::string_view text) {
  StatusOr<DenialConstraint> parsed = ParseDenialConstraint(text);
  if (!parsed.ok()) return parsed.status();
  return Create(std::move(*parsed));
}

StatusOr<CanonicalizedConstraint> ConstraintTemplate::Canonicalize(
    DenialConstraint constraint) {
  const std::vector<std::string> params = ParamNames(constraint);
  if (!params.empty()) {
    return Status::InvalidArgument(
        "unbound parameter '$" + params.front() +
        "'; only a ground constraint canonicalizes (register a template and "
        "bind it)");
  }
  CanonicalizedConstraint result;
  AlphaRename(constraint, &result.binding);
  StatusOr<ConstraintTemplate> tmpl = Create(std::move(constraint));
  if (!tmpl.ok()) return tmpl.status();
  result.tmpl = std::move(*tmpl);
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
  ForEachTerm(result, [&](Term& term) {
    if (!term.is_param()) return;
    const auto it =
        std::find(param_names_.begin(), param_names_.end(), term.name());
    term = Term::Const(binding[it - param_names_.begin()]);
  });
  return result;
}

std::string ConstraintTemplate::CanonicalSkeleton() const {
  DenialConstraint renamed = constraint_;
  AlphaRename(renamed, nullptr);
  return renamed.ToString();
}

DenialConstraint ConstraintTemplate::Generalized() const {
  DenialConstraint result = constraint_;
  ForEachTerm(result, [&](Term& term) {
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
