// Randomized checks of the structural claims the algorithms rest on
// (Sections 4-6 of the paper), over generated instances — the properties
// themselves, not specific examples.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/dcsat.h"
#include "core/fd_graph.h"
#include "core/get_maximal.h"
#include "core/ind_graph.h"
#include "core/possible_worlds.h"
#include "query/analysis.h"
#include "query/compiled_query.h"
#include "query/parser.h"
#include "util/rng.h"

namespace bcdb {
namespace {

/// Random small blockchain database over R(a,b) with key a, S(x,y) with
/// IND S[x] ⊆ R[a] (same generator family as the DCSat oracle tests).
BlockchainDatabase MakeRandomInstance(std::uint64_t seed) {
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
  constraints.AddFd(*FunctionalDependency::Key(catalog, "R", {"a"}));
  constraints.AddInd(
      *InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"}));
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

class PaperPropertiesTest : public ::testing::TestWithParam<std::uint64_t> {};

// Section 4: every possible world satisfies I (the can-append relation
// preserves consistency by definition, so enumeration must too).
TEST_P(PaperPropertiesTest, EveryEnumeratedWorldSatisfiesConstraints) {
  BlockchainDatabase db = MakeRandomInstance(GetParam());
  auto worlds = EnumeratePossibleWorlds(db, 1u << 16);
  ASSERT_TRUE(worlds.ok());
  ASSERT_FALSE(worlds->empty());
  for (const WorldView& world : *worlds) {
    EXPECT_TRUE(db.checker().CheckAll(world).ok());
  }
}

// Section 4: Poss(D) is downward-reachable — removing the last-added
// transaction of a world yields a world. Equivalent check: every world's
// active set is recognized by the PTIME IsPossibleWorld (Prop. 1).
TEST_P(PaperPropertiesTest, EnumerationAndRecognitionAgree) {
  BlockchainDatabase db = MakeRandomInstance(GetParam() + 100);
  auto worlds = EnumeratePossibleWorlds(db, 1u << 16);
  ASSERT_TRUE(worlds.ok());
  std::set<std::vector<std::size_t>> world_sets;
  for (const WorldView& world : *worlds) {
    world_sets.insert(world.active_bits().ToVector());
  }
  const std::vector<PendingId> pending = db.PendingIds();
  ASSERT_LE(pending.size(), 16u);
  for (std::size_t mask = 0; mask < (1u << pending.size()); ++mask) {
    std::vector<PendingId> subset;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (mask & (1u << i)) subset.push_back(pending[i]);
    }
    EXPECT_EQ(IsPossibleWorld(db, subset), world_sets.count(subset) > 0)
        << "mask " << mask;
  }
}

// Section 6.1: every possible world's transaction set is a clique of
// G^fd_T over valid nodes.
TEST_P(PaperPropertiesTest, WorldsAreFdGraphCliques) {
  BlockchainDatabase db = MakeRandomInstance(GetParam() + 200);
  const FdGraph fd_graph(db);
  auto worlds = EnumeratePossibleWorlds(db, 1u << 16);
  ASSERT_TRUE(worlds.ok());
  for (const WorldView& world : *worlds) {
    const std::vector<std::size_t> members = world.active_bits().ToVector();
    for (std::size_t i = 0; i < members.size(); ++i) {
      EXPECT_TRUE(fd_graph.valid_nodes().Test(members[i]));
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        EXPECT_TRUE(fd_graph.Adjacent(members[i], members[j]));
      }
    }
  }
}

// Section 6.1: getMaximal over a clique contains every possible world whose
// transactions lie inside that clique (the completeness half of
// NaiveDCSat's correctness).
TEST_P(PaperPropertiesTest, GetMaximalDominatesContainedWorlds) {
  BlockchainDatabase db = MakeRandomInstance(GetParam() + 300);
  const FdGraph fd_graph(db);
  auto worlds = EnumeratePossibleWorlds(db, 1u << 16);
  ASSERT_TRUE(worlds.ok());
  for (const WorldView& world : *worlds) {
    const std::vector<std::size_t> members = world.active_bits().ToVector();
    const WorldView maximal =
        GetMaximal(db, std::vector<PendingId>(members.begin(), members.end()));
    // The maximal world over exactly these members is the members
    // themselves (they are already a world), hence a superset check:
    for (std::size_t member : members) {
      EXPECT_TRUE(maximal.IsActive(static_cast<TupleOwner>(member)));
    }
    EXPECT_TRUE(IsPossibleWorld(db, maximal.active_bits().ToVector()));
  }
}

// Section 6.2 (Proposition 2): transactions in different Θ-components
// never co-serve a satisfying assignment — checked via the world-level
// consequence used by OptDCSat: restricting any world to one component
// preserves every per-component satisfying world of a connected query.
TEST_P(PaperPropertiesTest, ComponentRestrictionPreservesWorlds) {
  BlockchainDatabase db = MakeRandomInstance(GetParam() + 400);
  const FdGraph fd_graph(db);
  auto q = ParseDenialConstraint("q() :- R(x, y), S(x, z)");
  ASSERT_TRUE(q.ok());
  UnionFind uf(db.num_pending());
  MergeEqualityComponents(db, EqualitiesFromConstraints(db.constraints()),
                          fd_graph.valid_nodes(), uf);
  auto theta_q = EqualitiesFromQuery(*q, db.catalog());
  ASSERT_TRUE(theta_q.ok());
  MergeEqualityComponents(db, *theta_q, fd_graph.valid_nodes(), uf);

  auto worlds = EnumeratePossibleWorlds(db, 1u << 16);
  ASSERT_TRUE(worlds.ok());
  const ComponentList components = GroupComponents(fd_graph.valid_nodes(), uf);
  for (std::size_t i = 0; i < components.size(); ++i) {
    const std::set<std::size_t> in_component(components[i].begin(),
                                             components[i].end());
    for (const WorldView& world : *worlds) {
      std::vector<PendingId> restricted;
      world.active_bits().ForEach([&](std::size_t id) {
        if (in_component.count(id) > 0) restricted.push_back(id);
      });
      EXPECT_TRUE(IsPossibleWorld(db, restricted));
    }
  }
}

// Section 6: monotone queries really are monotone over the world lattice —
// if q holds in W it holds in every possible superset world.
TEST_P(PaperPropertiesTest, MonotoneQueriesMonotoneOverWorlds) {
  BlockchainDatabase db = MakeRandomInstance(GetParam() + 500);
  const char* queries[] = {
      "q() :- R(x, y), S(x, z)",
      "q() :- S(x, y), y > 1",
      "[q(count()) :- S(x, y)] > 1",
      "[q(sum(y)) :- S(x, y)] >= 3",
  };
  auto worlds = EnumeratePossibleWorlds(db, 1u << 16);
  ASSERT_TRUE(worlds.ok());
  for (const char* text : queries) {
    auto q = ParseDenialConstraint(text);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(AnalyzeQuery(*q, db.catalog()).monotone) << text;
    auto compiled = CompiledQuery::Compile(*q, &db.database());
    ASSERT_TRUE(compiled.ok());
    for (const WorldView& small : *worlds) {
      if (!compiled->Evaluate(small)) continue;
      const auto small_set = small.active_bits().ToVector();
      for (const WorldView& large : *worlds) {
        const auto large_set = large.active_bits().ToVector();
        if (std::includes(large_set.begin(), large_set.end(),
                          small_set.begin(), small_set.end())) {
          EXPECT_TRUE(compiled->Evaluate(large)) << text;
        }
      }
    }
  }
}

// Section 6.3: the pre-check is sound — if q is false over R ∪ T, it is
// false over every possible world.
TEST_P(PaperPropertiesTest, PrecheckSoundness) {
  BlockchainDatabase db = MakeRandomInstance(GetParam() + 600);
  const char* queries[] = {"q() :- R(2, y)", "q() :- R(x, y), S(x, y)",
                           "q() :- S(x, 3)"};
  auto worlds = EnumeratePossibleWorlds(db, 1u << 16);
  ASSERT_TRUE(worlds.ok());
  for (const char* text : queries) {
    auto q = ParseDenialConstraint(text);
    ASSERT_TRUE(q.ok());
    auto compiled = CompiledQuery::Compile(*q, &db.database());
    ASSERT_TRUE(compiled.ok());
    if (compiled->Evaluate(db.PendingUnionView())) continue;
    for (const WorldView& world : *worlds) {
      EXPECT_FALSE(compiled->Evaluate(world)) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaperPropertiesTest,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace bcdb
