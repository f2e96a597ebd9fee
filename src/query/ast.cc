#include "query/ast.h"

#include <algorithm>
#include <functional>

#include "util/hash.h"

namespace bcdb {

std::string Atom::ToString() const {
  std::string result = negated ? "not " : "";
  result += relation + "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) result += ", ";
    result += args[i].ToString();
  }
  result += ")";
  return result;
}

const char* ComparisonOpToString(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return "=";
    case ComparisonOp::kNe:
      return "!=";
    case ComparisonOp::kLt:
      return "<";
    case ComparisonOp::kGt:
      return ">";
    case ComparisonOp::kLe:
      return "<=";
    case ComparisonOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvaluateComparison(const Value& lhs, ComparisonOp op, const Value& rhs) {
  const int c = lhs.Compare(rhs);
  switch (op) {
    case ComparisonOp::kEq:
      return c == 0;
    case ComparisonOp::kNe:
      return c != 0;
    case ComparisonOp::kLt:
      return c < 0;
    case ComparisonOp::kGt:
      return c > 0;
    case ComparisonOp::kLe:
      return c <= 0;
    case ComparisonOp::kGe:
      return c >= 0;
  }
  return false;
}

std::string Comparison::ToString() const {
  return lhs.ToString() + " " + ComparisonOpToString(op) + " " +
         rhs.ToString();
}

const char* AggregateFunctionToString(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kCount:
      return "count";
    case AggregateFunction::kCountDistinct:
      return "cntd";
    case AggregateFunction::kSum:
      return "sum";
    case AggregateFunction::kMax:
      return "max";
    case AggregateFunction::kMin:
      return "min";
  }
  return "?";
}

std::string DenialConstraint::ToString() const {
  std::string body;
  bool first = true;
  auto append = [&](const std::string& piece) {
    if (!first) body += ", ";
    body += piece;
    first = false;
  };
  for (const Atom& atom : positive_atoms) append(atom.ToString());
  for (const Atom& atom : negated_atoms) append(atom.ToString());
  for (const Comparison& cmp : comparisons) append(cmp.ToString());

  std::string head;
  for (const Term& var : head_vars) {
    if (!head.empty()) head += ", ";
    head += var.ToString();
  }
  if (!aggregate.has_value()) return name + "(" + head + ") :- " + body;
  if (!head.empty()) head += ", ";
  head += std::string(AggregateFunctionToString(aggregate->fn)) + "(";
  for (std::size_t i = 0; i < aggregate->args.size(); ++i) {
    if (i > 0) head += ", ";
    head += aggregate->args[i].ToString();
  }
  return "[" + name + "(" + head + ")) :- " + body + "] " +
         ComparisonOpToString(aggregate->op) + " " +
         aggregate->threshold.ToString();
}

std::vector<std::string> ParamNames(const DenialConstraint& q) {
  std::vector<std::string> names;
  ForEachTerm(q, [&](const Term& term) {
    if (term.is_param() &&
        std::find(names.begin(), names.end(), term.name()) == names.end()) {
      names.push_back(term.name());
    }
  });
  return names;
}

std::size_t QueryHash::operator()(const DenialConstraint& q) const {
  std::size_t seed = std::hash<std::string>{}(q.name);
  for (const std::vector<Atom>* atoms :
       {&q.positive_atoms, &q.negated_atoms}) {
    for (const Atom& atom : *atoms) HashCombineValue(seed, atom.relation);
  }
  auto mix = [&](const Term& term) {
    HashCombine(seed, term.is_constant()
                          ? term.value().Hash()
                          : std::hash<std::string>{}(term.name()));
  };
  ForEachTerm(q, mix);
  for (const Term& term : q.head_vars) mix(term);
  return seed;
}

}  // namespace bcdb
