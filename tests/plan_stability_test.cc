#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/blockchain_db.h"
#include "core/dcsat.h"
#include "query/compiled_query.h"
#include "query/parser.h"
#include "query/template.h"
#include "util/rng.h"

namespace bcdb {
namespace {

// A compiled plan depends only on its query's structure, so one plan serves
// every later version of the database (ConstraintMonitor compiles each class
// plan once, at registration). These suites pin that, and pin the parameter
// slots class plans are built from against the grounded compile of each
// instance.

DenialConstraint Q(const std::string& text) {
  auto q = ParseDenialConstraint(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status();
  return *q;
}

/// R(a, b) with key a, S(x, y) with y non-negative and S[x] ⊆ R[a]; a few
/// base tuples and pending transactions over small values, so joins,
/// conflicts and repeats all occur.
BlockchainDatabase MakeInstance(Xoshiro256& rng) {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "S", {Attribute{"x", ValueType::kInt, false},
                            Attribute{"y", ValueType::kInt, true}}))
                  .ok());
  ConstraintSet constraints;
  constraints.AddFd(*FunctionalDependency::Key(catalog, "R", {"a"}));
  constraints.AddInd(
      *InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"}));
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());
  for (std::int64_t a = 0; a < 2; ++a) {
    EXPECT_TRUE(
        db->InsertCurrent("R", Tuple({Value::Int(a), Value::Int(a + 1)})).ok());
  }
  for (std::size_t t = 0; t < 5; ++t) {
    Transaction txn("P" + std::to_string(t));
    for (std::size_t i = 0; i < 1 + rng.NextBelow(2); ++i) {
      txn.Add(rng.NextBool(0.5) ? "R" : "S",
              Tuple({Value::Int(rng.NextInRange(0, 3)),
                     Value::Int(rng.NextInRange(0, 3))}));
    }
    EXPECT_TRUE(db->AddPending(txn).ok());
  }
  return std::move(*db);
}

/// The base state, R ∪ T, and a few random subsets of the pending
/// transactions (views, not necessarily possible worlds).
std::vector<WorldView> Views(const BlockchainDatabase& db, Xoshiro256& rng) {
  std::vector<WorldView> views = {db.BaseView(), db.PendingUnionView()};
  for (int w = 0; w < 3; ++w) {
    WorldView view = db.BaseView();
    for (PendingId id = 0; id < db.num_pending(); ++id) {
      if (db.IsPending(id) && rng.NextBool(0.5)) {
        view.Activate(static_cast<TupleOwner>(id));
      }
    }
    views.push_back(view);
  }
  return views;
}

// --- Plans are version-independent ----------------------------------------

/// Everything a ground plan answers over one view.
struct Observation {
  bool holds = false;
  bool covers = false;
  std::vector<Tuple> answers;

  bool operator==(const Observation& other) const {
    return holds == other.holds && covers == other.covers &&
           answers == other.answers;
  }
};

Observation Observe(const CompiledQuery& plan, const WorldView& view) {
  return Observation{plan.Evaluate(view), plan.CoversConstants(view),
                     plan.Answers(view)};
}

constexpr const char* kGroundQueries[] = {
    "q() :- R(x, y)",
    "q() :- R(1, y)",
    "q() :- R(x, y), S(x, z)",
    "q() :- R(x, 2), S(x, z), z > 1",
    "q() :- R(x, y), not S(x, y)",
    "q() :- S(x, y), R(x, b), b > y",
    "[q(count()) :- S(x, y)] > 2",
    "[q(cntd(y)) :- R(x, y)] >= 2",
    "[q(sum(y)) :- S(x, y)] >= 4",
    "q(x) :- R(x, y), S(x, z)",
    "q(y) :- R(1, y)",
    "q(x, z) :- R(x, y), S(y, z)",
};

class PlanVersionIndependenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanVersionIndependenceTest, OldPlansMatchFreshCompiles) {
  Xoshiro256 rng(GetParam());
  BlockchainDatabase db = MakeInstance(rng);
  std::vector<CompiledQuery> plans;
  for (const char* text : kGroundQueries) {
    auto plan = CompiledQuery::Compile(Q(text), &db.database());
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status();
    plans.push_back(*std::move(plan));
  }

  std::vector<PendingId> applied;
  std::vector<std::pair<std::string, Tuple>> inserted;
  auto random_pending = [&]() -> std::optional<PendingId> {
    std::vector<PendingId> ids;
    for (PendingId id = 0; id < db.num_pending(); ++id) {
      if (db.IsPending(id)) ids.push_back(id);
    }
    if (ids.empty()) return std::nullopt;
    return ids[rng.NextBelow(ids.size())];
  };
  auto random_tuple = [&] {
    return Tuple({Value::Int(rng.NextInRange(0, 5)),
                  Value::Int(rng.NextInRange(0, 3))});
  };

  for (int step = 0; step < 30; ++step) {
    std::string what;
    switch (rng.NextBelow(7)) {
      case 0: {
        what = "add";
        Transaction txn("N" + std::to_string(step));
        txn.Add(rng.NextBool(0.5) ? "R" : "S", random_tuple());
        (void)db.AddPending(txn);
        break;
      }
      case 1:
        what = "apply";
        if (auto id = random_pending(); id && db.ApplyPending(*id).ok()) {
          applied.push_back(*id);
        }
        break;
      case 2:
        what = "discard";
        if (auto id = random_pending()) (void)db.DiscardPending(*id);
        break;
      case 3:
        what = "unapply";
        if (!applied.empty()) {
          const std::size_t i = rng.NextBelow(applied.size());
          if (db.UnapplyPending(applied[i]).ok()) {
            applied.erase(applied.begin() + static_cast<std::ptrdiff_t>(i));
          }
        }
        break;
      case 4: {
        what = "insert";
        const std::string rel = rng.NextBool(0.5) ? "R" : "S";
        Tuple tuple = random_tuple();
        if (db.InsertCurrent(rel, tuple).ok()) inserted.emplace_back(rel, tuple);
        break;
      }
      case 5:
        what = "remove";
        if (!inserted.empty()) {
          const std::size_t i = rng.NextBelow(inserted.size());
          (void)db.RemoveCurrent(inserted[i].first, inserted[i].second);
          inserted.erase(inserted.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      default:
        // Reorg: the latest block leaves the chain and another transaction
        // confirms in its place.
        what = "reorg";
        if (!applied.empty() && db.UnapplyPending(applied.back()).ok()) {
          applied.pop_back();
          if (auto id = random_pending(); id && db.ApplyPending(*id).ok()) {
            applied.push_back(*id);
          }
        }
        break;
    }
    const std::vector<WorldView> views = Views(db, rng);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      auto fresh = CompiledQuery::Compile(Q(kGroundQueries[i]), &db.database());
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      for (std::size_t v = 0; v < views.size(); ++v) {
        EXPECT_TRUE(Observe(plans[i], views[v]) == Observe(*fresh, views[v]))
            << "step " << step << " (" << what << "), "
            << kGroundQueries[i] << ", view " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanVersionIndependenceTest,
                         ::testing::Range<std::uint64_t>(0, 20));

// --- Parameter slots --------------------------------------------------------

struct SlotCase {
  const char* text;
  std::vector<std::vector<Value>> bindings;
};

/// Templates covering every parameter position a class plan accepts, each
/// with bindings that exercise the interesting couplings.
std::vector<SlotCase> SlotCases() {
  const Value i0 = Value::Int(0), i1 = Value::Int(1), i2 = Value::Int(2),
              i3 = Value::Int(3);
  return {
      {"q() :- R($a, y)", {{i0}, {i1}, {i3}, {Value::Real(1.0)}}},
      // Two parameters bound to equal values, and to different ones.
      {"q() :- R($a, $b)", {{i1, i1}, {i1, i2}, {i2, i2}, {i0, i1}}},
      {"q() :- R($a, y), S($b, y)", {{i1, i1}, {i0, i2}, {i2, i2}}},
      // A parameter equal to a literal constant of the same query.
      {"q() :- R($a, y), S(1, y)", {{i1}, {i2}, {i0}}},
      {"q() :- R($a, 1)", {{i1}, {i0}, {i2}}},
      // Parameters in comparisons: against a variable, a constant, another
      // parameter, and under equality.
      {"q() :- R(x, y), y > $t", {{i0}, {i1}, {i3}, {Value::Real(1.5)}}},
      {"q() :- R(x, y), x = $a", {{i0}, {i2}, {i3}}},
      {"q() :- R(x, y), $t < $u", {{i0, i1}, {i1, i0}, {i1, i1}}},
      {"q() :- R(x, y), $a != 3", {{i3}, {i2}}},
      {"q() :- R(x, y), S(x, z), z >= $t, y != $u", {{i1, i2}, {i0, i0}}},
      // Parameters in negations.
      {"q() :- R(x, y), not S(x, $c)", {{i0}, {i1}, {i2}, {i3}}},
      {"q() :- R($a, y), not S($a, y)", {{i0}, {i1}, {i2}}},
      // A threshold parameter, alone and with body parameters.
      {"[q(count()) :- S(x, y)] > $k", {{i0}, {i1}, {i2}, {i3}}},
      {"[q(sum(y)) :- S(x, y), x = $a] >= $k", {{i1, i1}, {i2, i3}, {i0, i0}}},
      {"[q(cntd(y)) :- R(x, y)] >= $k", {{i1}, {i2}, {Value::Real(2.5)}}},
  };
}

class ParameterSlotTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParameterSlotTest, TemplatePlanMatchesGroundedCompile) {
  Xoshiro256 rng(GetParam());
  BlockchainDatabase db = MakeInstance(rng);
  for (const SlotCase& c : SlotCases()) {
    auto tmpl = ConstraintTemplate::Parse(c.text);
    ASSERT_TRUE(tmpl.ok()) << c.text << ": " << tmpl.status();
    auto plan = CompiledQuery::Compile(tmpl->constraint(), &db.database());
    ASSERT_TRUE(plan.ok()) << c.text << ": " << plan.status();
    ASSERT_EQ(plan->num_params(), tmpl->num_params()) << c.text;
    for (std::size_t p = 0; p < tmpl->num_params(); ++p) {
      EXPECT_EQ(plan->variable_names()[p], "$" + tmpl->param_names()[p]);
    }
    const std::vector<WorldView> views = Views(db, rng);
    for (const std::vector<Value>& binding : c.bindings) {
      auto q = tmpl->Instantiate(binding);
      ASSERT_TRUE(q.ok()) << q.status();
      auto grounded = CompiledQuery::Compile(*q, &db.database());
      ASSERT_TRUE(grounded.ok()) << q->ToString() << ": " << grounded.status();
      EXPECT_TRUE(plan->ValidateBinding(Tuple(binding)).ok());
      for (std::size_t v = 0; v < views.size(); ++v) {
        EXPECT_EQ(plan->Evaluate(views[v], Tuple(binding)),
                  grounded->Evaluate(views[v]))
            << q->ToString() << ", view " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParameterSlotTest,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(ParameterSlotTest, ValidateBindingRejectsWhatTheGroundedCompileRejects) {
  Xoshiro256 rng(7);
  BlockchainDatabase db = MakeInstance(rng);
  const Value i1 = Value::Int(1), s = Value::Str("x"), r = Value::Real(0.5);
  const SlotCase cases[] = {
      {"q() :- R($a, y)", {{i1}, {s}, {r}, {}, {i1, i1}}},
      {"q() :- R(x, y), not S(x, $c)", {{i1}, {s}}},
      // Comparison and threshold parameters take any type: the grounded
      // compile folds or compares whatever it is given.
      {"q() :- R(x, y), y > $t", {{i1}, {s}}},
      {"[q(count()) :- S(x, y)] > $k", {{i1}, {s}}},
      {"q() :- R($a, y), S($a, $b), $b < $c", {{i1, i1, s}, {s, i1, i1}}},
  };
  bool rejected_some = false;
  for (const SlotCase& c : cases) {
    auto tmpl = ConstraintTemplate::Parse(c.text);
    ASSERT_TRUE(tmpl.ok()) << tmpl.status();
    auto plan = CompiledQuery::Compile(tmpl->constraint(), &db.database());
    ASSERT_TRUE(plan.ok()) << plan.status();
    for (const std::vector<Value>& binding : c.bindings) {
      auto q = tmpl->Instantiate(binding);
      const bool grounded_ok =
          q.ok() && CompiledQuery::Compile(*q, &db.database()).ok();
      const Status validated = plan->ValidateBinding(Tuple(binding));
      EXPECT_EQ(validated.ok(), grounded_ok)
          << c.text << " binding " << Tuple(binding).ToString() << ": "
          << validated;
      rejected_some = rejected_some || !grounded_ok;
    }
  }
  EXPECT_TRUE(rejected_some);
}

TEST(ParameterSlotTest, GroundOnlyEntryPointsRejectParameters) {
  Xoshiro256 rng(3);
  BlockchainDatabase db = MakeInstance(rng);
  auto plan = CompiledQuery::Compile(Q("q() :- R($a, y)"), &db.database());
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->RequireGround().ok());
  // Without a binding the slots stay empty: nothing holds, nothing answers.
  EXPECT_FALSE(plan->Evaluate(db.PendingUnionView()));
  DcSatEngine engine(&db);
  auto checked = engine.Check(Q("q() :- R($a, y)"));
  ASSERT_FALSE(checked.ok());
  EXPECT_NE(checked.status().message().find("unbound parameter"),
            std::string::npos);
}

}  // namespace
}  // namespace bcdb
