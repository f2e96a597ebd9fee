#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/dcsat.h"
#include "core/ind_graph.h"
#include "query/parser.h"
#include "util/rng.h"

namespace bcdb {
namespace {

/// The decomposition memo: OptDCSat's component partition depends only on
/// the residual Θ_q (the equalities no Θ_I equality implies), so a
/// long-lived engine decomposes each residual shape once per cache refresh
/// and answers later checks of that shape from the memo. At every step of
/// randomized lifecycle mutation streams the memoized engine must be
/// bit-identical to a fresh engine — verdicts, witnesses, stats and the
/// partition itself — and must report a miss on the first check of a shape
/// after a mutation and a hit on the repeat.

Catalog MakeCatalog() {
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
  return catalog;
}

BlockchainDatabase MakeInstance(Xoshiro256& rng, bool with_ind) {
  Catalog catalog = MakeCatalog();
  ConstraintSet constraints;
  auto key = FunctionalDependency::Key(catalog, "R", {"a"});
  EXPECT_TRUE(key.ok());
  constraints.AddFd(std::move(*key));
  if (with_ind) {
    auto ind = InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"});
    EXPECT_TRUE(ind.ok());
    constraints.AddInd(std::move(*ind));
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
  EXPECT_TRUE(db->ValidateCurrentState().ok());
  return std::move(*db);
}

/// Small domains: frequent FD collisions and shared Θ-buckets.
Transaction RandomTxn(Xoshiro256& rng, std::size_t ordinal) {
  Transaction txn("P" + std::to_string(ordinal));
  const std::size_t num_tuples = 1 + rng.NextBelow(3);
  for (std::size_t i = 0; i < num_tuples; ++i) {
    txn.Add(rng.NextBool(0.5) ? "R" : "S",
            Tuple({Value::Int(rng.NextInRange(0, 5)),
                   Value::Int(rng.NextInRange(0, 5))}));
  }
  return txn;
}

/// A connected query and its residual Θ_q shape, with the IND S[x] ⊆ R[a]
/// in Θ_I and without it. Queries with one label must share one memo entry.
struct ShapedQuery {
  const char* text;
  const char* shape_with_ind;
  const char* shape_without_ind;
};

const ShapedQuery kQueries[] = {
    // Θ_I only.
    {"q() :- R(x, y)", "", ""},
    {"q() :- R(1, y)", "", ""},
    {"q() :- R(x, y), S(x, z)", "", "R0=S0"},
    // qr-shaped: one residual equality, whatever the constants, atom order
    // or orientation.
    {"q() :- R(x, y), S(y, z)", "R1=S0", "R1=S0"},
    {"q() :- S(y, 2), R(3, y)", "R1=S0", "R1=S0"},
    {"q() :- S(x, y), S(y, z)", "S1=S0", "S1=S0"},
    // qp-shaped: two residual equalities.
    {"q() :- R(x, y), S(y, z), S(z, w)", "R1=S0 S1=S0", "R1=S0 S1=S0"},
    {"q() :- S(z, 4), S(y, z), R(x, y)", "R1=S0 S1=S0", "R1=S0 S1=S0"},
};

DcSatOptions OptOptions() {
  DcSatOptions options;
  options.algorithm = DcSatAlgorithm::kOpt;
  options.use_precheck = false;  // Reach the decomposition.
  return options;
}

DenialConstraint Q(const std::string& text) {
  auto q = ParseDenialConstraint(text);
  EXPECT_TRUE(q.ok()) << text;
  return *q;
}

/// Everything a check reports except timings and the memo flag.
void ExpectSameResult(const DcSatResult& actual, const DcSatResult& expected,
                      const std::string& context) {
  EXPECT_EQ(actual.decided, expected.decided) << context;
  EXPECT_EQ(actual.satisfied, expected.satisfied) << context;
  EXPECT_EQ(actual.witness, expected.witness) << context;
  const DcSatStats& a = actual.stats;
  const DcSatStats& e = expected.stats;
  EXPECT_EQ(a.algorithm_used, e.algorithm_used) << context;
  EXPECT_EQ(a.precheck_decided, e.precheck_decided) << context;
  EXPECT_EQ(a.num_valid_nodes, e.num_valid_nodes) << context;
  EXPECT_EQ(a.fd_conflict_pairs, e.fd_conflict_pairs) << context;
  EXPECT_EQ(a.num_components, e.num_components) << context;
  EXPECT_EQ(a.theta_q_merged, e.theta_q_merged) << context;
  EXPECT_EQ(a.num_components_covered, e.num_components_covered) << context;
  EXPECT_EQ(a.components_completed, e.components_completed) << context;
  EXPECT_EQ(a.num_cliques, e.num_cliques) << context;
  EXPECT_EQ(a.num_worlds_evaluated, e.num_worlds_evaluated) << context;
}

void ExpectSamePartition(const ComponentList& actual,
                         const ComponentList& expected,
                         const std::string& context) {
  EXPECT_EQ(actual.members, expected.members) << context;
  EXPECT_EQ(actual.offsets, expected.offsets) << context;
}

/// Checks every query twice on the long-lived `engine` against a fresh
/// engine. `decomposed` holds the shapes decomposed since the last mutation;
/// a shape's first check is a hit exactly when it is already there.
/// Counts the queries whose checks reached the decomposition in `reached`.
void CheckAllQueries(DcSatEngine& engine, BlockchainDatabase& db,
                     bool with_ind, std::set<std::string>& decomposed,
                     std::size_t& reached, const std::string& context) {
  for (const ShapedQuery& shaped : kQueries) {
    const DenialConstraint q = Q(shaped.text);
    const std::string shape =
        with_ind ? shaped.shape_with_ind : shaped.shape_without_ind;
    const std::string where = context + " " + shaped.text;
    DcSatEngine fresh(&db);
    auto expected = fresh.Check(q, OptOptions());
    ASSERT_TRUE(expected.ok()) << where;
    EXPECT_FALSE(expected->stats.decomposition_reused) << where;
    // The base world decides before any decomposition.
    const bool decomposes = expected->witness != std::vector<PendingId>{};

    auto first = engine.Check(q, OptOptions());
    auto repeat = engine.Check(q, OptOptions());
    ASSERT_TRUE(first.ok()) << where;
    ASSERT_TRUE(repeat.ok()) << where;
    ExpectSameResult(*first, *expected, where + " (first)");
    ExpectSameResult(*repeat, *expected, where + " (repeat)");
    EXPECT_EQ(first->stats.decomposition_reused,
              decomposes && decomposed.count(shape) > 0)
        << where;
    EXPECT_EQ(repeat->stats.decomposition_reused, decomposes) << where;
    if (decomposes) {
      decomposed.insert(shape);
      ++reached;
    }

    auto compiled = engine.GetOrCompile(q);
    ASSERT_TRUE(compiled.ok()) << where;
    const std::vector<EqualityConstraint>& theta_q = (*compiled)->equalities();
    bool reused = false;
    const std::shared_ptr<const ComponentList> memoized =
        engine.Decompose(&theta_q, nullptr, &reused);
    EXPECT_EQ(reused, decomposed.count(shape) > 0) << where;
    decomposed.insert(shape);  // Decompose stores a miss, too.
    ExpectSamePartition(*memoized, *fresh.Decompose(&theta_q), where);
  }
}

class DecompositionMemoTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DecompositionMemoTest, MutationStreamMatchesFreshEngine) {
  for (const bool with_ind : {false, true}) {
    Xoshiro256 rng(GetParam() * 2 + (with_ind ? 1 : 0));
    BlockchainDatabase db = MakeInstance(rng, with_ind);
    DcSatEngine engine(&db);
    std::size_t next_ordinal = 0;
    std::vector<PendingId> live;
    std::vector<PendingId> applied;
    std::vector<std::pair<std::string, Tuple>> base;
    for (std::size_t i = 0; i < 4 + rng.NextBelow(4); ++i) {
      auto id = db.AddPending(RandomTxn(rng, next_ordinal++));
      ASSERT_TRUE(id.ok());
      live.push_back(*id);
    }
    std::set<std::string> decomposed;
    std::size_t reached = 0;
    std::uint64_t checked_version = db.version();
    CheckAllQueries(engine, db, with_ind, decomposed, reached, "initial");

    for (std::size_t step = 0; step < 20; ++step) {
      const std::string context = "seed " + std::to_string(GetParam()) +
                                  " ind " + std::to_string(with_ind) +
                                  " step " + std::to_string(step);
      const std::size_t op = rng.NextBelow(7);
      switch (op) {
        case 0: {  // Base insert (block confirmation).
          const std::string relation = rng.NextBool(0.7) ? "R" : "S";
          const Tuple tuple({Value::Int(rng.NextInRange(0, 5)),
                             Value::Int(rng.NextInRange(0, 5))});
          if (db.InsertCurrent(relation, tuple).ok() &&
              std::find(base.begin(), base.end(),
                        std::make_pair(relation, tuple)) == base.end()) {
            base.emplace_back(relation, tuple);
          }
          break;
        }
        case 1: {  // Base removal.
          if (base.empty()) break;
          const std::size_t pick = rng.NextBelow(base.size());
          const Status removed =
              db.RemoveCurrent(base[pick].first, base[pick].second);
          ASSERT_TRUE(removed.ok() || removed.code() == StatusCode::kNotFound)
              << context << ": " << removed.ToString();
          base.erase(base.begin() + pick);
          break;
        }
        case 2: {  // Unapply one confirmed transaction.
          if (applied.empty()) break;
          const std::size_t pick = rng.NextBelow(applied.size());
          ASSERT_TRUE(db.UnapplyPending(applied[pick]).ok()) << context;
          live.push_back(applied[pick]);
          applied.erase(applied.begin() + pick);
          break;
        }
        case 3: {  // Reorg: every confirmed transaction returns, and one
                   // base tuple is retracted, in a single batch.
          for (PendingId id : applied) {
            ASSERT_TRUE(db.UnapplyPending(id).ok()) << context;
            live.push_back(id);
          }
          applied.clear();
          if (!base.empty()) {
            const Status removed =
                db.RemoveCurrent(base.back().first, base.back().second);
            ASSERT_TRUE(removed.ok() ||
                        removed.code() == StatusCode::kNotFound)
                << context << ": " << removed.ToString();
            base.pop_back();
          }
          break;
        }
        case 4: {  // Mempool arrival.
          auto id = db.AddPending(RandomTxn(rng, next_ordinal++));
          ASSERT_TRUE(id.ok()) << context;
          live.push_back(*id);
          break;
        }
        default: {  // Confirmation, or eviction when it cannot apply.
          if (live.empty()) break;
          const std::size_t pick = rng.NextBelow(live.size());
          const PendingId id = live[pick];
          if (op == 5 && db.ApplyPending(id).ok()) {
            applied.push_back(id);
          } else {
            ASSERT_TRUE(db.DiscardPending(id).ok()) << context;
          }
          live.erase(live.begin() + pick);
          break;
        }
      }
      if (db.version() != checked_version) decomposed.clear();
      checked_version = db.version();
      CheckAllQueries(engine, db, with_ind, decomposed, reached, context);
    }
    // A good share of the 21 rounds of checks get past the base world to
    // the memo.
    EXPECT_GT(reached, std::size(kQueries) * 21 / 4) << "ind " << with_ind;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionMemoTest,
                         ::testing::Range<std::uint64_t>(0, 30));

/// Pending transactions and no base tuples, so no query holds over R and
/// every Opt check reaches the decomposition.
BlockchainDatabase MakePendingOnlyInstance(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  auto db = BlockchainDatabase::Create(MakeCatalog(), ConstraintSet{});
  EXPECT_TRUE(db.ok());
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(db->AddPending(RandomTxn(rng, i)).ok());
  }
  return std::move(*db);
}

TEST(DecompositionMemoEdgeTest, OrderAndOrientationShareOneEntry) {
  BlockchainDatabase db = MakePendingOnlyInstance(5);
  DcSatEngine engine(&db);
  engine.PrepareSteadyState();
  const std::pair<const char*, const char*> twins[] = {
      // R[1] = S[0] against S[0] = R[1].
      {"q() :- R(x, y), S(y, z)", "q() :- S(y, z), R(x, y)"},
      // S[1] = S[0] against S[0] = S[1].
      {"q() :- S(x, y), S(y, z)", "q() :- S(y, z), S(x, y)"},
      // Two equalities, listed in either order and each reversed.
      {"q() :- R(x, y), S(y, z), S(z, w)",
       "q() :- S(z, w), S(y, z), R(x, y)"},
  };
  for (const auto& [left_text, right_text] : twins) {
    auto left = engine.GetOrCompile(Q(left_text));
    auto right = engine.GetOrCompile(Q(right_text));
    ASSERT_TRUE(left.ok() && right.ok()) << left_text;
    ASSERT_EQ((*left)->equalities().size(), (*right)->equalities().size());
    bool left_reused = true;
    bool right_reused = false;
    const auto left_components =
        engine.Decompose(&(*left)->equalities(), nullptr, &left_reused);
    const auto right_components =
        engine.Decompose(&(*right)->equalities(), nullptr, &right_reused);
    EXPECT_FALSE(left_reused) << left_text;
    EXPECT_TRUE(right_reused) << right_text;
    EXPECT_EQ(left_components.get(), right_components.get()) << right_text;

    DcSatEngine fresh(&db);
    fresh.PrepareSteadyState();
    ExpectSamePartition(*right_components,
                        *fresh.Decompose(&(*right)->equalities()), right_text);
    auto checked = engine.Check(Q(right_text), OptOptions());
    auto expected = fresh.Check(Q(right_text), OptOptions());
    ASSERT_TRUE(checked.ok() && expected.ok()) << right_text;
    EXPECT_TRUE(checked->stats.decomposition_reused) << right_text;
    ExpectSameResult(*checked, *expected, right_text);
  }
}

TEST(DecompositionMemoEdgeTest, EvictionPastTheCapKeepsResultsIdentical) {
  BlockchainDatabase db = MakePendingOnlyInstance(9);
  DcSatEngine engine(&db);
  // Eleven distinct residual shapes: more than the memo holds.
  const char* shapes[] = {
      "q() :- R(x, y)",
      "q() :- R(x, y), S(y, z)",
      "q() :- S(x, y), S(y, z)",
      "q() :- R(x, y), R(y, z)",
      "q() :- R(x, y), S(z, x)",
      "q() :- R(x, y), S(z, y)",
      "q() :- S(x, y), S(z, y)",
      "q() :- R(x, y), R(z, y)",
      "q() :- R(x, y), S(x, z)",
      "q() :- R(x, y), S(x, y)",
      "q() :- R(x, y), S(y, z), S(z, w)",
  };
  static_assert(std::size(shapes) > DcSatEngine::kDecompositionMemoCapacity);
  engine.PrepareSteadyState();
  auto first_compiled = engine.GetOrCompile(Q(shapes[0]));
  ASSERT_TRUE(first_compiled.ok());
  const std::shared_ptr<const ComponentList> held =
      engine.Decompose(&(*first_compiled)->equalities());
  const ComponentList snapshot = *held;

  DcSatEngine fresh(&db);
  for (int round = 0; round < 2; ++round) {
    for (const char* text : shapes) {
      const std::string where = "round " + std::to_string(round) + " " + text;
      auto first = engine.Check(Q(text), OptOptions());
      auto repeat = engine.Check(Q(text), OptOptions());
      auto expected = fresh.Check(Q(text), OptOptions());
      ASSERT_TRUE(first.ok() && repeat.ok() && expected.ok()) << where;
      ExpectSameResult(*first, *expected, where);
      ExpectSameResult(*repeat, *expected, where);
      EXPECT_TRUE(repeat->stats.decomposition_reused) << where;
      if (round == 1) {
        // Eleven shapes cycled through a memo of eight: every entry of the
        // previous pass was evicted before its shape came round again.
        EXPECT_FALSE(first->stats.decomposition_reused) << where;
      }
    }
  }
  // The evicted partition outlives its memo entry with its holder.
  ExpectSamePartition(*held, snapshot, "held across eviction");
  ExpectSamePartition(*held,
                      *fresh.Decompose(&(*first_compiled)->equalities()),
                      "held against fresh");
}

}  // namespace
}  // namespace bcdb
