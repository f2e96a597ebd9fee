#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/monitor.h"
#include "grounded_reference.h"
#include "query/parser.h"
#include "util/rng.h"

namespace bcdb {
namespace {

// Differential harness for the monitor's shared class plans: every member's
// verdict must equal the grounded reference — the member's constraint
// instantiated, compiled and decided from scratch (q over R, else
// DcSatEngine::Check) — over the same database history, across
// registration styles (RegisterTemplate+Bind fleets, plain Adds that
// canonicalize into shared classes, non-projectable templates), churn
// (apply/discard/add-pending), and member removal. Under unlimited budgets
// the probes and answer passes are pure optimizations; any verdict
// divergence is a bug.

using testing_fixtures::GroundedVerdict;
using Verdict = ConstraintMonitor::Verdict;

DenialConstraint Q(const std::string& text) {
  auto q = ParseDenialConstraint(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

BlockchainDatabase MakeInstance(std::uint64_t seed, bool keys, bool inds) {
  Xoshiro256 rng(seed);
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
  if (keys) {
    constraints.AddFd(*FunctionalDependency::Key(catalog, "R", {"a"}));
    constraints.AddFd(
        *FunctionalDependency::Create(catalog, "S", {"x"}, {"y"}));
  }
  if (inds) {
    constraints.AddInd(
        *InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"}));
  }
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());

  const std::size_t base_r = rng.NextBelow(3);
  for (std::size_t a = 0; a < base_r; ++a) {
    EXPECT_TRUE(db->InsertCurrent(
                      "R", Tuple({Value::Int(static_cast<std::int64_t>(a)),
                                  Value::Int(rng.NextInRange(0, 3))}))
                    .ok());
  }
  const std::size_t num_pending = 3 + rng.NextBelow(4);
  for (std::size_t t = 0; t < num_pending; ++t) {
    Transaction txn("P" + std::to_string(t));
    const std::size_t num_tuples = 1 + rng.NextBelow(3);
    for (std::size_t i = 0; i < num_tuples; ++i) {
      if (rng.NextBool(0.5)) {
        txn.Add("R", Tuple({Value::Int(rng.NextInRange(0, 4)),
                            Value::Int(rng.NextInRange(0, 3))}));
      } else {
        txn.Add("S", Tuple({Value::Int(rng.NextInRange(0, 4)),
                            Value::Int(rng.NextInRange(0, 3))}));
      }
    }
    EXPECT_TRUE(db->AddPending(txn).ok());
  }
  return std::move(*db);
}

struct Config {
  const char* name;
  bool keys;
  bool inds;
};

constexpr Config kConfigs[] = {
    {"fd-only", true, false},
    {"ind-only", false, true},
    {"mixed", true, true},
};

// One monitor over one database, plus how to decide each member from
// scratch: its template and binding, or its ground constraint.
struct Harness {
  BlockchainDatabase db;
  ConstraintMonitor monitor;
  DcSatEngine reference;
  // Parallel arrays: member i's handle, its grounded constraint, its name.
  std::vector<MonitorHandle> handles;
  std::vector<DenialConstraint> grounded;
  std::vector<std::string> names;

  Harness(std::uint64_t seed, const Config& config)
      : db(MakeInstance(seed, config.keys, config.inds)),
        monitor(&db),
        reference(&db) {}

  void Bind(TemplateHandle tmpl, const std::string& text,
            const std::vector<Value>& binding, const std::string& name) {
    auto handle = monitor.Bind(tmpl, binding);
    ASSERT_TRUE(handle.ok()) << name << ": " << handle.status();
    auto parsed = ConstraintTemplate::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    auto q = parsed->Instantiate(binding);
    ASSERT_TRUE(q.ok()) << q.status();
    handles.push_back(*handle);
    grounded.push_back(*q);
    names.push_back(name);
  }

  void Add(const std::string& label, const std::string& text) {
    auto handle = monitor.Add(label, Q(text));
    ASSERT_TRUE(handle.ok()) << label << ": " << handle.status();
    handles.push_back(*handle);
    grounded.push_back(Q(text));
    names.push_back(label);
  }

  void Remove(std::size_t i) {
    ASSERT_TRUE(monitor.Remove(handles[i]).ok());
    handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(i));
    grounded.erase(grounded.begin() + static_cast<std::ptrdiff_t>(i));
    names.erase(names.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void PollAndCompare(const char* when) {
    ASSERT_TRUE(monitor.Poll().ok()) << when;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      EXPECT_EQ(monitor.verdict(handles[i]),
                GroundedVerdict(db, reference, grounded[i]))
          << when << ": " << names[i];
    }
  }
};

class TemplateDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TemplateDifferentialTest, BatchedMatchesGroundedAcrossChurn) {
  for (const Config& config : kConfigs) {
    SCOPED_TRACE(std::string(config.name) + " seed " +
                 std::to_string(GetParam()));
    const std::uint64_t seed =
        GetParam() * 7 + (config.keys ? 1 : 0) + (config.inds ? 2 : 0);
    Harness h(seed, config);

    // Fleet 1: single-param template over R's key column.
    const char* watch = "q() :- R($a, y)";
    auto t1 = h.monitor.RegisterTemplate("watch-a", watch);
    ASSERT_TRUE(t1.ok());
    for (std::int64_t a = 0; a < 5; ++a) {
      h.Bind(*t1, watch, {Value::Int(a)},
             "watch-a(" + std::to_string(a) + ")");
    }

    // Fleet 2: two-param join template (CoNP-mixed under IND configs).
    const char* join = "q() :- R(x, $b), S(x, $c)";
    auto t2 = h.monitor.RegisterTemplate("join", join);
    ASSERT_TRUE(t2.ok());
    for (std::int64_t b = 0; b < 3; ++b) {
      for (std::int64_t c = 0; c < 3; ++c) {
        h.Bind(*t2, join, {Value::Int(b), Value::Int(c)},
               "join(" + std::to_string(b) + "," + std::to_string(c) + ")");
      }
    }

    // Fleet 3: a non-projectable template ($t only in a comparison) is
    // probed member by member, never by answer passes.
    const char* gt = "q() :- S(x, y), R(x, b), b > $t";
    auto t3 = h.monitor.RegisterTemplate("gt", gt);
    ASSERT_TRUE(t3.ok());
    EXPECT_FALSE(h.monitor.template_batchable(*t3));
    for (std::int64_t t = 0; t < 2; ++t) {
      h.Bind(*t3, gt, {Value::Int(t)}, "gt(" + std::to_string(t) + ")");
    }

    // Plain Adds: same-skeleton constants collapse onto one implicit class;
    // an aggregate gets a class of its own.
    h.Add("r0", "q() :- R(0, y)");
    h.Add("r1", "q() :- R(1, y)");
    h.Add("count-s", "[q(count()) :- S(x, y)] > 2");
    if (HasFatalFailure()) return;

    h.PollAndCompare("initial");

    // Churn, with verdicts compared after every step whether or not the
    // mutation succeeds.
    (void)h.db.ApplyPending(0);
    h.PollAndCompare("after apply P0");

    // Remove one member of the watch-a fleet; its siblings (same class)
    // must keep evaluating correctly.
    h.Remove(2);

    Transaction extra("extra");
    extra.Add("R", Tuple({Value::Int(2), Value::Int(2)}));
    extra.Add("S", Tuple({Value::Int(2), Value::Int(1)}));
    ASSERT_TRUE(h.db.AddPending(extra).ok());
    h.PollAndCompare("after remove + add pending");

    (void)h.db.DiscardPending(1);
    h.PollAndCompare("after discard P1");
  }
}

// Members whose search runs on the class plan in a way the grounded check
// may not: a binding the unsat proof rejects in a non-monotone class, two
// parameters bound equal (the grounded query's constants couple its atoms,
// the template's parameters do not), and FD-only members whose search is the
// assignment-support check over the class plan.
TEST_P(TemplateDifferentialTest, MemberSearchesMatchGroundedAcrossChurn) {
  for (const Config& config : kConfigs) {
    SCOPED_TRACE(std::string(config.name) + " seed " +
                 std::to_string(GetParam()));
    const std::uint64_t seed =
        GetParam() * 11 + (config.keys ? 1 : 0) + (config.inds ? 2 : 0);
    Harness h(seed, config);
    // A second monitor holds fleet 1 under a one-world default budget: an
    // unsat binding routes to the static class and is decided without a
    // search. Routed on the class alone it would run the budgeted
    // exhaustive search and stay undecided.
    MonitorOptions tight;
    tight.budget.max_worlds = 1;
    ConstraintMonitor budgeted(&h.db, tight);
    std::vector<std::pair<MonitorHandle, bool>> budgeted_members;

    // Fleet 1: non-monotone, with bindings the unsat proof rejects
    // (lo <= hi) beside ones it cannot.
    const char* range = "q() :- R(x, y), not S(x, y), $lo > $hi";
    auto t1 = h.monitor.RegisterTemplate("range", range);
    auto b1 = budgeted.RegisterTemplate("range", range);
    ASSERT_TRUE(t1.ok());
    ASSERT_TRUE(b1.ok());
    const std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
        {1, 0}, {3, 1}, {0, 0}, {0, 2}, {1, 3}};
    for (const auto& [lo, hi] : ranges) {
      const std::vector<Value> binding = {Value::Int(lo), Value::Int(hi)};
      const std::string name =
          "range(" + std::to_string(lo) + "," + std::to_string(hi) + ")";
      h.Bind(*t1, range, binding, name);
      auto member = budgeted.Bind(*b1, binding);
      ASSERT_TRUE(member.ok()) << name << ": " << member.status();
      budgeted_members.emplace_back(*member, lo <= hi);
    }

    // Fleet 2: a disconnected join whose parameters take equal values.
    const char* pair = "q() :- R($a, y), S($b, z)";
    auto t2 = h.monitor.RegisterTemplate("pair", pair);
    ASSERT_TRUE(t2.ok());
    for (std::int64_t a = 0; a < 4; ++a) {
      h.Bind(*t2, pair, {Value::Int(a), Value::Int(a)},
             "pair(" + std::to_string(a) + ")");
    }
    h.Bind(*t2, pair, {Value::Int(0), Value::Int(1)}, "pair(0,1)");

    // Fleet 3: a positive join, in the FD-only fragment under fd-only.
    const char* chain = "q() :- R($a, y), S(y, z)";
    auto t3 = h.monitor.RegisterTemplate("chain", chain);
    ASSERT_TRUE(t3.ok());
    for (std::int64_t a = 0; a < 5; ++a) {
      h.Bind(*t3, chain, {Value::Int(a)}, "chain(" + std::to_string(a) + ")");
    }
    if (HasFatalFailure()) return;

    auto poll_budgeted = [&](const char* when) {
      ASSERT_TRUE(budgeted.Poll().ok()) << when;
      for (std::size_t i = 0; i < budgeted_members.size(); ++i) {
        const Verdict got = budgeted.verdict(budgeted_members[i].first);
        if (budgeted_members[i].second) {
          EXPECT_EQ(got, Verdict::kImpossible) << when << ": range " << i;
        } else if (got != Verdict::kUndecided) {
          EXPECT_EQ(got, h.monitor.verdict(h.handles[i]))
              << when << ": range " << i;
        }
      }
    };
    h.PollAndCompare("initial");
    poll_budgeted("initial");
    (void)h.db.ApplyPending(0);
    h.PollAndCompare("after apply P0");
    poll_budgeted("after apply P0");
    Transaction extra("extra");
    extra.Add("R", Tuple({Value::Int(3), Value::Int(1)}));
    extra.Add("S", Tuple({Value::Int(1), Value::Int(3)}));
    ASSERT_TRUE(h.db.AddPending(extra).ok());
    h.PollAndCompare("after add pending");
    poll_budgeted("after add pending");
    (void)h.db.DiscardPending(1);
    h.PollAndCompare("after discard P1");
    poll_budgeted("after discard P1");
    EXPECT_GT(h.monitor.poll_stats().searches, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemplateDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 30));

// --- Budgets ------------------------------------------------------------

/// R(a, b) with key a plus S[x] ⊆ R[a] (the IND forces the CoNP-mixed
/// class, so the monitor's default budget applies); pending double-spend
/// pairs (i,0) vs (i,1) for i < k give |Poss(D)| = 3^k.
BlockchainDatabase MakeMixedConflictLadder(std::size_t k) {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "S", {Attribute{"x", ValueType::kInt, false},
                            Attribute{"y", ValueType::kInt, false}}))
                  .ok());
  ConstraintSet constraints;
  auto key = FunctionalDependency::Key(catalog, "R", {"a"});
  EXPECT_TRUE(key.ok());
  constraints.AddFd(std::move(*key));
  constraints.AddInd(
      *InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"}));
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());
  for (std::size_t i = 0; i < k; ++i) {
    for (std::int64_t b : {0, 1}) {
      Transaction txn;
      txn.Add("R",
              Tuple({Value::Int(static_cast<std::int64_t>(i)), Value::Int(b)}));
      EXPECT_TRUE(db->AddPending(txn).ok());
    }
  }
  return std::move(*db);
}

// A budget-starved member check may answer kUndecided, but a *decided*
// verdict it reports must match the unlimited reference, and escalation
// must eventually decide every member.
TEST(TemplateBudgetDifferentialTest, BatchNeverLiesUnderBudgetAndEscalates) {
  BlockchainDatabase reference_db = MakeMixedConflictLadder(3);  // 27 worlds.
  ConstraintMonitor reference(&reference_db);

  BlockchainDatabase budgeted_db = MakeMixedConflictLadder(3);
  MonitorOptions options;
  // One world per check — work-based, deterministic expiry. A "cell"
  // member's own search finds its tuple in the first world it builds, but a
  // "rival" member needs both worlds of its component, one per side of the
  // R(a, 0) / R(a, 1) conflict, to prove that no world holds both.
  options.budget.max_worlds = 1;
  ConstraintMonitor budgeted(&budgeted_db, options);

  struct Member {
    const char* label;
    const char* text;
    std::vector<Value> binding;
  };
  const std::vector<Member> members = {
      {"cell", "q() :- R($a, $b)", {Value::Int(0), Value::Int(0)}},
      {"cell", "q() :- R($a, $b)", {Value::Int(0), Value::Int(1)}},
      {"cell", "q() :- R($a, $b)", {Value::Int(1), Value::Int(0)}},
      {"cell", "q() :- R($a, $b)", {Value::Int(9), Value::Int(9)}},
      {"rival", "q() :- R($a, x), R($a, y), x != y", {Value::Int(0)}},
      {"rival", "q() :- R($a, x), R($a, y), x != y", {Value::Int(2)}},
  };
  std::map<std::string, std::pair<TemplateHandle, TemplateHandle>> classes;
  std::vector<MonitorHandle> ref_handles;
  std::vector<MonitorHandle> bud_handles;
  for (const Member& member : members) {
    auto it = classes.find(member.label);
    if (it == classes.end()) {
      auto ref_tmpl = reference.RegisterTemplate(member.label, member.text);
      auto bud_tmpl = budgeted.RegisterTemplate(member.label, member.text);
      ASSERT_TRUE(ref_tmpl.ok());
      ASSERT_TRUE(bud_tmpl.ok());
      it = classes.emplace(member.label, std::make_pair(*ref_tmpl, *bud_tmpl))
               .first;
    }
    auto r = reference.Bind(it->second.first, member.binding);
    auto b = budgeted.Bind(it->second.second, member.binding);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(b.ok());
    ref_handles.push_back(*r);
    bud_handles.push_back(*b);
  }
  ASSERT_TRUE(budgeted.template_batchable(classes.at("cell").second));
  ASSERT_TRUE(reference.Poll().ok());
  for (MonitorHandle handle : ref_handles) {
    ASSERT_NE(reference.verdict(handle), Verdict::kUndecided);
  }

  bool all_decided = false;
  for (int poll = 0; poll < 10 && !all_decided; ++poll) {
    ASSERT_TRUE(budgeted.Poll().ok());
    all_decided = true;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const Verdict got = budgeted.verdict(bud_handles[i]);
      if (got == Verdict::kUndecided) {
        all_decided = false;
        continue;
      }
      // Decided under budget pressure: must agree with the reference.
      EXPECT_EQ(got, reference.verdict(ref_handles[i])) << "member " << i;
    }
  }
  EXPECT_TRUE(all_decided);
  EXPECT_GT(budgeted.poll_stats().undecided_verdicts, 0u);
  EXPECT_GT(budgeted.poll_stats().budget_escalations, 0u);
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(budgeted.verdict(bud_handles[i]),
              reference.verdict(ref_handles[i]))
        << "member " << i;
  }
}

}  // namespace
}  // namespace bcdb
