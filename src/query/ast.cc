#include "query/ast.h"

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

}  // namespace bcdb
