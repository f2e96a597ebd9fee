// Differential testing of the compiled, index-backed evaluator against a
// deliberately naive reference implementation of the paper's Section-5
// semantics: enumerate *all* assignments of atoms to visible tuples by
// nested loops, check consistency, negation and comparisons directly, and
// fold aggregates over the full assignment bag. Any divergence is a bug in
// the planner, the index maintenance, or the early-exit logic.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "query/compiled_query.h"
#include "query/parser.h"
#include "relational/database.h"
#include "util/rng.h"

namespace bcdb {
namespace {

/// Reference evaluation. Returns the truth value of `q` over `view`
/// following the definitions verbatim (no indexes, no ordering, no early
/// exits).
class ReferenceEvaluator {
 public:
  ReferenceEvaluator(const Database& db, const DenialConstraint& q,
                     const WorldView& view)
      : db_(db), q_(q), view_(view) {}

  bool Evaluate() {
    assignments_.clear();
    std::map<std::string, Value> binding;
    Enumerate(0, binding);
    if (!q_.is_aggregate()) {
      return !assignments_.empty();
    }
    if (assignments_.empty()) return false;  // Empty bag -> false.
    const AggregateSpec& spec = *q_.aggregate;
    Value aggregate;
    switch (spec.fn) {
      case AggregateFunction::kCount:
        aggregate = Value::Int(static_cast<std::int64_t>(assignments_.size()));
        break;
      case AggregateFunction::kCountDistinct: {
        std::set<std::vector<std::string>> distinct;
        for (const auto& h : assignments_) {
          std::vector<std::string> projected;
          for (const Term& term : spec.args) {
            projected.push_back(h.at(term.name()).ToString());
          }
          distinct.insert(projected);
        }
        aggregate = Value::Int(static_cast<std::int64_t>(distinct.size()));
        break;
      }
      case AggregateFunction::kSum: {
        double total = 0;
        for (const auto& h : assignments_) {
          total += h.at(spec.args[0].name()).AsNumeric();
        }
        aggregate = Value::Real(total);
        break;
      }
      case AggregateFunction::kMax:
      case AggregateFunction::kMin: {
        std::optional<Value> best;
        for (const auto& h : assignments_) {
          const Value& v = h.at(spec.args[0].name());
          if (!best.has_value() ||
              (spec.fn == AggregateFunction::kMax ? v > *best : v < *best)) {
            best = v;
          }
        }
        aggregate = *best;
        break;
      }
    }
    return EvaluateComparison(aggregate, spec.op, spec.threshold.value());
  }

 private:
  /// Tries all visible tuples for positive atom `index`.
  void Enumerate(std::size_t index, std::map<std::string, Value>& binding) {
    if (index == q_.positive_atoms.size()) {
      if (CheckResiduals(binding)) assignments_.push_back(binding);
      return;
    }
    const Atom& atom = q_.positive_atoms[index];
    const Relation& rel =
        db_.relation(*db_.catalog().RelationId(atom.relation));
    for (TupleId id = 0; id < rel.num_tuples(); ++id) {
      if (!rel.IsVisible(id, view_)) continue;
      const Tuple& tuple = rel.tuple(id);
      std::map<std::string, Value> extended = binding;
      if (!MatchAtom(atom, tuple, extended)) continue;
      Enumerate(index + 1, extended);
    }
  }

  static bool MatchAtom(const Atom& atom, const Tuple& tuple,
                        std::map<std::string, Value>& binding) {
    for (std::size_t i = 0; i < atom.args.size(); ++i) {
      const Term& term = atom.args[i];
      if (!term.is_variable()) {
        if (tuple[i] != term.value()) return false;
        continue;
      }
      auto it = binding.find(term.name());
      if (it == binding.end()) {
        binding.emplace(term.name(), tuple[i]);
      } else if (it->second != tuple[i]) {
        return false;
      }
    }
    return true;
  }

  bool CheckResiduals(const std::map<std::string, Value>& binding) const {
    for (const Comparison& cmp : q_.comparisons) {
      const Value lhs =
          cmp.lhs.is_variable() ? binding.at(cmp.lhs.name()) : cmp.lhs.value();
      const Value rhs =
          cmp.rhs.is_variable() ? binding.at(cmp.rhs.name()) : cmp.rhs.value();
      if (!EvaluateComparison(lhs, cmp.op, rhs)) return false;
    }
    for (const Atom& atom : q_.negated_atoms) {
      std::vector<Value> ground;
      for (const Term& term : atom.args) {
        ground.push_back(term.is_variable() ? binding.at(term.name())
                                            : term.value());
      }
      const Relation& rel =
          db_.relation(*db_.catalog().RelationId(atom.relation));
      if (rel.ContainsVisible(Tuple(std::move(ground)), view_)) return false;
    }
    return true;
  }

  const Database& db_;
  const DenialConstraint& q_;
  const WorldView& view_;
  std::vector<std::map<std::string, Value>> assignments_;
};

Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "E", {Attribute{"s", ValueType::kInt, false},
                            Attribute{"d", ValueType::kInt, false},
                            Attribute{"w", ValueType::kInt, true}}))
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "L", {Attribute{"n", ValueType::kInt, false},
                            Attribute{"t", ValueType::kString, false}}))
                  .ok());
  return catalog;
}

/// Random database with base and pending tuples over a tiny domain.
Database MakeRandomDatabase(std::uint64_t seed, std::size_t* num_owners) {
  Xoshiro256 rng(seed);
  Database db(MakeCatalog());
  *num_owners = 2 + rng.NextBelow(3);
  for (std::size_t o = 0; o < *num_owners; ++o) db.RegisterOwner();
  const char* tags[] = {"red", "blue"};
  const std::size_t edges = 4 + rng.NextBelow(10);
  for (std::size_t i = 0; i < edges; ++i) {
    const TupleOwner owner =
        rng.NextBool(0.5) ? kBaseOwner
                          : static_cast<TupleOwner>(rng.NextBelow(*num_owners));
    EXPECT_TRUE(db.Insert("E",
                          Tuple({Value::Int(rng.NextInRange(0, 3)),
                                 Value::Int(rng.NextInRange(0, 3)),
                                 Value::Int(rng.NextInRange(0, 5))}),
                          owner)
                    .ok());
  }
  const std::size_t labels = 2 + rng.NextBelow(5);
  for (std::size_t i = 0; i < labels; ++i) {
    const TupleOwner owner =
        rng.NextBool(0.5) ? kBaseOwner
                          : static_cast<TupleOwner>(rng.NextBelow(*num_owners));
    EXPECT_TRUE(db.Insert("L",
                          Tuple({Value::Int(rng.NextInRange(0, 3)),
                                 Value::Str(tags[rng.NextBelow(2)])}),
                          owner)
                    .ok());
  }
  return db;
}

const char* kQueries[] = {
    "q() :- E(x, y, w)",
    "q() :- E(x, x, w)",
    "q() :- E(0, y, w)",
    "q() :- E(x, y, w), E(y, z, v)",
    "q() :- E(x, y, w), E(y, z, v), x != z",
    "q() :- E(x, y, w), L(y, 'red')",
    "q() :- E(x, y, w), L(x, t), L(y, t)",
    "q() :- E(x, y, w), not L(y, 'red')",
    "q() :- E(x, y, w), not L(x, 'blue'), w > 2",
    "q() :- E(x, y, w), E(u, v, w), x < u",
    "q() :- E(x, y, 3)",
    "[q(count()) :- E(x, y, w)] > 4",
    "[q(count()) :- E(x, y, w), L(y, 'red')] = 2",
    "[q(cntd(x)) :- E(x, y, w)] >= 2",
    "[q(cntd(x, y)) :- E(x, y, w)] < 5",
    "[q(sum(w)) :- E(x, y, w)] > 10",
    "[q(sum(w)) :- E(0, y, w)] <= 6",
    "[q(max(w)) :- E(x, y, w)] = 5",
    "[q(min(w)) :- E(x, y, w)] < 2",
};

class ReferenceEvalTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceEvalTest, CompiledMatchesReferenceOverManyWorlds) {
  std::size_t num_owners = 0;
  Database db = MakeRandomDatabase(GetParam(), &num_owners);
  Xoshiro256 rng(GetParam() ^ 0xabcdef);

  // Views: base, full, and a few random activation patterns.
  std::vector<WorldView> views = {db.BaseView(), db.FullView()};
  for (int i = 0; i < 4; ++i) {
    WorldView view = db.BaseView();
    for (std::size_t o = 0; o < num_owners; ++o) {
      if (rng.NextBool(0.5)) view.Activate(static_cast<TupleOwner>(o));
    }
    views.push_back(view);
  }

  for (const char* text : kQueries) {
    auto q = ParseDenialConstraint(text);
    ASSERT_TRUE(q.ok()) << text;
    auto compiled = CompiledQuery::Compile(*q, &db);
    ASSERT_TRUE(compiled.ok()) << text << ": " << compiled.status();
    for (std::size_t v = 0; v < views.size(); ++v) {
      ReferenceEvaluator reference(db, *q, views[v]);
      EXPECT_EQ(compiled->Evaluate(views[v]), reference.Evaluate())
          << text << " view " << v << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceEvalTest,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace bcdb
