#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/bron_kerbosch.h"
#include "core/dcsat.h"
#include "core/get_maximal.h"
#include "query/parser.h"
#include "util/rng.h"

namespace bcdb {
namespace {

/// Differential testing of getMaximal's two entry points. On every maximal
/// clique of G^fd_T, and on random sub-cliques of it in random order, the
/// clique entry point (appendability-to-R status, then the IND-only
/// fixpoint) must build exactly the world the general entry point (the full
/// FD and IND probe) builds — at every step of a random mutation stream.
/// Alongside, a long-lived engine checks every constraint twice per step:
/// both checks must match a fresh engine's, and the repeat (which reads the
/// filled status) must run no more appendability probes than the first.
///
/// The schema is a two-relation UTXO sketch: R(a, b) is an output a holding
/// b, S(x, y) spends output x into output y. Keys (a → b, x → y: one
/// spender per output) make double spends FD conflicts; both S columns must
/// name an output (S.x ⊆ R.a, S.y ⊆ R.a).

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
                            Attribute{"y", ValueType::kInt, false}}))
                  .ok());
  return catalog;
}

BlockchainDatabase MakeInstance(Xoshiro256& rng) {
  Catalog catalog = MakeCatalog();
  ConstraintSet constraints;
  for (const auto& [relation, column] :
       {std::pair<const char*, const char*>{"R", "a"}, {"S", "x"}}) {
    auto key = FunctionalDependency::Key(catalog, relation, {column});
    EXPECT_TRUE(key.ok());
    constraints.AddFd(std::move(*key));
  }
  for (const char* column : {"x", "y"}) {
    auto ind = InclusionDependency::Create(catalog, "S", {column}, "R", {"a"});
    EXPECT_TRUE(ind.ok());
    constraints.AddInd(std::move(*ind));
  }
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());
  for (std::int64_t a = 0; a < 3; ++a) {
    EXPECT_TRUE(
        db->InsertCurrent("R", Tuple({Value::Int(a),
                                      Value::Int(rng.NextInRange(0, 3))}))
            .ok());
  }
  EXPECT_TRUE(db->ValidateCurrentState().ok());
  return std::move(*db);
}

Tuple Output(std::int64_t a, std::int64_t b) {
  return Tuple({Value::Int(a), Value::Int(b)});
}
Tuple Spend(std::int64_t x, std::int64_t y) {
  return Tuple({Value::Int(x), Value::Int(y)});
}

/// Generates the transactions of one arrival. Fresh output keys start at
/// 100 and never collide; keys in [0, 8) collide with the base outputs and
/// with each other, so arrivals double-spend and contradict R.
class Arrivals {
 public:
  explicit Arrivals(Xoshiro256* rng) : rng_(rng) {}

  /// One arrival: a single transaction, or an IND chain listed child first
  /// (each link spends its parent's output into its own).
  std::vector<Transaction> Next() {
    std::vector<Transaction> txns;
    switch (rng_->NextBelow(5)) {
      case 0: {  // Chain, child first: the child's id is the lowest.
        const std::size_t length = 2 + rng_->NextBelow(3);
        std::int64_t parent = SpendableKey();
        std::vector<std::int64_t> keys;
        for (std::size_t i = 0; i < length; ++i) keys.push_back(fresh_++);
        for (std::size_t i = 0; i < length; ++i) {
          Transaction txn = Named();
          txn.Add("R", Output(keys[i], rng_->NextInRange(0, 3)));
          txn.Add("S", Spend(i == 0 ? parent : keys[i - 1], keys[i]));
          txns.push_back(std::move(txn));
        }
        std::reverse(txns.begin(), txns.end());
        break;
      }
      case 1: {  // Self-witnessed: the spend pays into its own output.
        Transaction txn = Named();
        const std::int64_t key = fresh_++;
        txn.Add("R", Output(key, rng_->NextInRange(0, 3)));
        txn.Add("S", Spend(key, key));
        txns.push_back(std::move(txn));
        break;
      }
      case 2: {  // Base-witnessed: spends one base output into another.
        Transaction txn = Named();
        txn.Add("S", Spend(rng_->NextInRange(0, 2), rng_->NextInRange(0, 2)));
        txns.push_back(std::move(txn));
        break;
      }
      case 3: {  // Dangling: spends an output nothing ever creates.
        Transaction txn = Named();
        const std::int64_t key = fresh_++;
        txn.Add("R", Output(key, rng_->NextInRange(0, 3)));
        txn.Add("S", Spend(1000 + rng_->NextInRange(0, 3), key));
        txns.push_back(std::move(txn));
        break;
      }
      default: {  // Small domains: FD conflicts with R and each other.
        Transaction txn = Named();
        const std::size_t num_tuples = 1 + rng_->NextBelow(2);
        for (std::size_t i = 0; i < num_tuples; ++i) {
          if (rng_->NextBool(0.5)) {
            txn.Add("R", Output(rng_->NextInRange(0, 7),
                                rng_->NextInRange(0, 3)));
          } else {
            txn.Add("S", Spend(rng_->NextInRange(0, 7),
                               rng_->NextInRange(0, 7)));
          }
        }
        txns.push_back(std::move(txn));
        break;
      }
    }
    return txns;
  }

 private:
  Transaction Named() { return Transaction("P" + std::to_string(ordinal_++)); }

  /// A key some base or earlier chain output holds (or held).
  std::int64_t SpendableKey() {
    if (fresh_ == 100 || rng_->NextBool(0.4)) return rng_->NextInRange(0, 2);
    return rng_->NextInRange(100, fresh_ - 1);
  }

  Xoshiro256* rng_;
  std::int64_t fresh_ = 100;
  std::size_t ordinal_ = 0;
};

void Shuffle(Xoshiro256& rng, std::vector<PendingId>& ids) {
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.NextBelow(i)]);
  }
}

/// Both entry points over `members` (a clique of `graph`) build one world.
void ExpectSameWorld(const BlockchainDatabase& db, const FdGraph& graph,
                     const BaseAppendability& status,
                     const std::vector<PendingId>& members,
                     const std::string& context) {
  GetMaximalStats clique_stats;
  GetMaximalStats general_stats;
  const WorldView clique =
      GetMaximalOfClique(db, graph, status, members, &clique_stats);
  const WorldView general = GetMaximal(db, members, &general_stats);
  ASSERT_EQ(clique.active_bits().ToVector(), general.active_bits().ToVector())
      << context;
  ASSERT_EQ(clique_stats.appended, general_stats.appended) << context;
}

/// Every maximal clique of G^fd_T, and three random sub-cliques of each —
/// shuffled, ascending (children first) and descending.
void ExpectEntryPointsAgree(Xoshiro256& rng, const BlockchainDatabase& db,
                            const FdGraph& graph, const std::string& context) {
  BaseAppendability status;  // Cold; fills as the cliques below query it.
  status.Reset(db.num_pending());
  std::vector<std::vector<PendingId>> cliques;
  EnumerateMaximalCliques(graph.conflict_lists(), graph.valid_nodes(),
                          /*use_pivot=*/true,
                          [&](const std::vector<std::size_t>& clique) {
                            cliques.push_back(clique);
                            return true;
                          });
  ASSERT_FALSE(cliques.empty()) << context;
  for (const std::vector<PendingId>& clique : cliques) {
    ExpectSameWorld(db, graph, status, clique, context + " maximal clique");
    for (int round = 0; round < 3; ++round) {
      std::vector<PendingId> sub;
      for (PendingId id : clique) {
        if (rng.NextBool(0.6)) sub.push_back(id);
      }
      if (round == 0) Shuffle(rng, sub);
      if (round == 1) std::sort(sub.begin(), sub.end());
      if (round == 2) std::sort(sub.rbegin(), sub.rend());
      ExpectSameWorld(db, graph, status, sub,
                      context + " sub-clique " + std::to_string(round));
    }
  }
}

const char* kNaiveQueries[] = {
    "q() :- R(x, y)",
    "q() :- R(x, 1), S(x, y)",
    "q() :- S(x, y), R(y, z)",
    "q() :- S(x, y), S(y, z)",
    "q() :- S(x, y), S(y, z), S(z, w)",
    "[q(cntd(a)) :- R(a, b)] >= 6",
    "[q(cntd(x)) :- S(x, y)] >= 3",
};

/// `first` and `repeat` (one long-lived engine) against `fresh` (a new
/// engine): one verdict, one witness, one set of search counts. The cache
/// flag and the clocks differ by design; the probe count may only shrink.
void ExpectSameCheck(const DcSatResult& first, const DcSatResult& repeat,
                     const DcSatResult& fresh, const std::string& context) {
  for (const DcSatResult* result : {&first, &repeat}) {
    const DcSatStats& got = result->stats;
    const DcSatStats& want = fresh.stats;
    ASSERT_EQ(result->decided, fresh.decided) << context;
    ASSERT_EQ(result->satisfied, fresh.satisfied) << context;
    ASSERT_EQ(result->witness, fresh.witness) << context;
    ASSERT_EQ(got.algorithm_used, want.algorithm_used) << context;
    ASSERT_EQ(got.precheck_decided, want.precheck_decided) << context;
    ASSERT_EQ(got.num_pending, want.num_pending) << context;
    ASSERT_EQ(got.num_valid_nodes, want.num_valid_nodes) << context;
    ASSERT_EQ(got.fd_conflict_pairs, want.fd_conflict_pairs) << context;
    ASSERT_EQ(got.num_components, want.num_components) << context;
    ASSERT_EQ(got.num_components_covered, want.num_components_covered)
        << context;
    ASSERT_EQ(got.components_completed, want.components_completed)
        << context;
    ASSERT_EQ(got.num_cliques, want.num_cliques) << context;
    ASSERT_EQ(got.num_worlds_evaluated, want.num_worlds_evaluated)
        << context;
    ASSERT_EQ(got.budget_expired, want.budget_expired) << context;
  }
  ASSERT_LE(repeat.stats.maximal_probes, first.stats.maximal_probes)
      << context;
}

void ExpectEngineLifetime(DcSatEngine& engine, BlockchainDatabase& db,
                          const std::string& context) {
  DcSatEngine fresh(&db);
  for (bool precheck : {true, false}) {
    DcSatOptions options;
    options.algorithm = DcSatAlgorithm::kNaive;
    options.use_precheck = precheck;
    for (const char* text : kNaiveQueries) {
      auto q = ParseDenialConstraint(text);
      ASSERT_TRUE(q.ok()) << text;
      auto first = engine.Check(*q, options);
      auto repeat = engine.Check(*q, options);
      auto reference = fresh.Check(*q, options);
      ASSERT_TRUE(first.ok()) << context << " " << text;
      ASSERT_TRUE(repeat.ok()) << context << " " << text;
      ASSERT_TRUE(reference.ok()) << context << " " << text;
      ExpectSameCheck(*first, *repeat, *reference,
                      context + " " + text + " precheck " +
                          std::to_string(precheck));
    }
  }
}

/// Undoes the step's mutation if it left R ⊭ I (a spend whose output went
/// away), so every step reasons over a consistent current state.
template <typename Undo>
void KeepConsistent(BlockchainDatabase& db, const Undo& undo,
                    const std::string& context) {
  if (db.ValidateCurrentState().ok()) return;
  undo();
  ASSERT_TRUE(db.ValidateCurrentState().ok()) << context;
}

void RunCliqueDifferential(std::uint64_t seed, std::size_t steps) {
  Xoshiro256 rng(seed);
  BlockchainDatabase db = MakeInstance(rng);
  DcSatEngine engine(&db);
  Arrivals arrivals(&rng);
  constexpr std::size_t kMaxLive = 14;

  std::vector<PendingId> live;
  std::vector<PendingId> applied;  // In application order.
  std::vector<std::pair<std::string, Tuple>> base;  // Inserted directly.
  auto add = [&] {
    for (const Transaction& txn : arrivals.Next()) {
      auto id = db.AddPending(txn);
      ASSERT_TRUE(id.ok());
      live.push_back(*id);
    }
  };
  // Confirms a live transaction: the first of four random picks that is
  // appendable to R, if any.
  auto apply = [&] {
    for (int attempt = 0; attempt < 4 && !live.empty(); ++attempt) {
      const std::size_t pick = rng.NextBelow(live.size());
      const PendingId id = live[pick];
      if (!db.ApplyPending(id).ok()) continue;
      applied.push_back(id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      return;
    }
  };
  // Returns the last-applied transaction to the mempool (a reorg's undo).
  auto unapply_last = [&](const std::string& context) {
    const PendingId id = applied.back();
    ASSERT_TRUE(db.UnapplyPending(id).ok()) << context;
    applied.pop_back();
    live.push_back(id);
    KeepConsistent(
        db,
        [&] {
          ASSERT_TRUE(db.ApplyPending(id).ok()) << context;
          live.pop_back();
          applied.push_back(id);
        },
        context);
  };
  for (int i = 0; i < 3; ++i) add();

  for (std::size_t step = 0; step <= steps; ++step) {
    const std::string context =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    const std::size_t op = step == 0 ? 99 : rng.NextBelow(10);
    switch (op) {
      case 0:
      case 1:
        if (live.size() < kMaxLive) add();
        break;
      case 2:
        if (!live.empty()) {
          const std::size_t pick = rng.NextBelow(live.size());
          ASSERT_TRUE(db.DiscardPending(live[pick]).ok()) << context;
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        break;
      case 3:
        apply();
        break;
      case 4: {  // Unapply any applied transaction, not only the last.
        if (applied.empty()) break;
        std::swap(applied[rng.NextBelow(applied.size())], applied.back());
        unapply_last(context);
        break;
      }
      case 5:
      case 6: {  // A base insert: an output, or a spend of base outputs.
        const bool output = op == 5;
        const std::string relation = output ? "R" : "S";
        const Tuple tuple = output ? Output(rng.NextInRange(0, 7),
                                            rng.NextInRange(0, 3))
                                   : Spend(rng.NextInRange(0, 7),
                                           rng.NextInRange(0, 7));
        if (!db.InsertCurrent(relation, tuple).ok()) break;
        const bool known =
            std::find(base.begin(), base.end(),
                      std::make_pair(relation, tuple)) != base.end();
        bool undone = false;
        KeepConsistent(
            db,
            [&] {
              ASSERT_TRUE(db.RemoveCurrent(relation, tuple).ok()) << context;
              undone = true;
            },
            context);
        if (!undone && !known) base.emplace_back(relation, tuple);
        break;
      }
      case 7: {  // A reorg drops a directly inserted base tuple.
        if (base.empty()) break;
        const std::size_t pick = rng.NextBelow(base.size());
        const auto [relation, tuple] = base[pick];
        base.erase(base.begin() + static_cast<std::ptrdiff_t>(pick));
        if (!db.RemoveCurrent(relation, tuple).ok()) break;  // Stale entry.
        KeepConsistent(
            db,
            [&] {
              ASSERT_TRUE(db.InsertCurrent(relation, tuple).ok()) << context;
              base.emplace_back(relation, tuple);
            },
            context);
        break;
      }
      case 8: {  // A reorg: undo up to three blocks, then confirm one.
        for (std::size_t n = 1 + rng.NextBelow(3); n > 0 && !applied.empty();
             --n) {
          unapply_last(context);
        }
        apply();
        break;
      }
      default:
        break;
    }
    if (testing::Test::HasFatalFailure()) return;
    const FdGraph& graph = engine.PrepareSteadyState();
    ExpectEntryPointsAgree(rng, db, graph, context);
    if (testing::Test::HasFatalFailure()) return;
    ExpectEngineLifetime(engine, db, context);
    if (testing::Test::HasFatalFailure()) return;
  }
}

class GetMaximalCliqueTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GetMaximalCliqueTest, CliqueEntryPointMatchesGeneral) {
  RunCliqueDifferential(GetParam(), /*steps=*/40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GetMaximalCliqueTest,
                         ::testing::Range<std::uint64_t>(1, 33));

TEST(GetMaximalCliqueUnitTest, StatusSeedsAppendableMembersFirst) {
  Xoshiro256 rng(7);
  BlockchainDatabase db = MakeInstance(rng);
  // A chain of two listed child first, plus a dangling spend.
  Transaction child("child");
  child.Add("R", Output(101, 0));
  child.Add("S", Spend(100, 101));
  Transaction parent("parent");
  parent.Add("R", Output(100, 0));
  parent.Add("S", Spend(0, 100));
  Transaction dangling("dangling");
  dangling.Add("S", Spend(999, 0));
  for (const Transaction& txn : {child, parent, dangling}) {
    ASSERT_TRUE(db.AddPending(txn).ok());
  }
  const FdGraph graph(db);
  BaseAppendability status;
  status.Reset(db.num_pending());

  GetMaximalStats stats;
  const WorldView world = GetMaximalOfClique(db, graph, status, {0, 1, 2},
                                             &stats);
  EXPECT_EQ(world.active_bits().ToVector(), (std::vector<std::size_t>{0, 1}));
  // Three status fills; the parent is seeded, then one fixpoint round
  // places the child and a second finds nothing for the dangling spend.
  EXPECT_EQ(stats.appended, 2u);
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(stats.probes, 3u + 2u + 1u);

  // A second query reads every member's status: no fills.
  GetMaximalStats again;
  EXPECT_EQ(GetMaximalOfClique(db, graph, status, {0, 1, 2}, &again), world);
  EXPECT_EQ(again.probes, 2u + 1u);
}

}  // namespace
}  // namespace bcdb
