#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bitcoin/generator.h"
#include "bitcoin/to_relational.h"
#include "core/bron_kerbosch.h"
#include "core/dcsat.h"
#include "core/get_maximal.h"
#include "core/ind_graph.h"
#include "query/analysis.h"
#include "query/parser.h"
#include "util/rng.h"
#include "util/union_find.h"
#include "workload/constraints.h"
#include "workload/datasets.h"

namespace bcdb {
namespace {

/// OptDCSat merges a reduced Θ_q: EqualitiesFromQuery drops the equalities
/// another one implies, and Decompose skips those a Θ_I equality implies.
/// The oracle below is the unreduced derivation — one greedy positional
/// matching per pair of positive atoms, every one merged onto Θ_I — so the
/// differential shows the reduction never changes a component, a verdict, a
/// witness or a stat.

/// The pairwise Θ_q derivation without any reduction.
std::vector<EqualityConstraint> UnreducedThetaQ(const DenialConstraint& q,
                                                const Catalog& catalog) {
  // One node per term class: a variable or parameter by name, a constant by
  // value; `=`-comparisons between interned terms merge classes.
  std::map<std::string, std::size_t> node_of;
  auto key = [](const Term& term) {
    if (term.is_variable()) return "v" + term.name();
    if (term.is_param()) return "$" + term.name();
    return "c" + term.value().ToString();
  };
  for (const Atom& atom : q.positive_atoms) {
    for (const Term& term : atom.args) {
      node_of.emplace(key(term), node_of.size());
    }
  }
  UnionFind uf(node_of.size());
  for (const Comparison& cmp : q.comparisons) {
    if (cmp.op != ComparisonOp::kEq) continue;
    auto a = node_of.find(key(cmp.lhs));
    auto b = node_of.find(key(cmp.rhs));
    if (a != node_of.end() && b != node_of.end()) {
      uf.Union(a->second, b->second);
    }
  }
  auto class_of = [&](const Term& term) {
    return uf.Find(node_of.at(key(term)));
  };

  std::vector<EqualityConstraint> result;
  for (std::size_t a = 0; a < q.positive_atoms.size(); ++a) {
    for (std::size_t b = a + 1; b < q.positive_atoms.size(); ++b) {
      const Atom& atom_a = q.positive_atoms[a];
      const Atom& atom_b = q.positive_atoms[b];
      EqualityConstraint eq{*catalog.RelationId(atom_a.relation),
                            *catalog.RelationId(atom_b.relation),
                            {},
                            {}};
      std::vector<bool> used_b(atom_b.args.size(), false);
      for (std::size_t i = 0; i < atom_a.args.size(); ++i) {
        for (std::size_t j = 0; j < atom_b.args.size(); ++j) {
          if (!used_b[j] &&
              class_of(atom_b.args[j]) == class_of(atom_a.args[i])) {
            eq.lhs_positions.push_back(i);
            eq.rhs_positions.push_back(j);
            used_b[j] = true;
            break;
          }
        }
      }
      if (!eq.lhs_positions.empty()) result.push_back(std::move(eq));
    }
  }
  return result;
}

/// Θ_I ∪ unreduced Θ_q components of the valid nodes, from scratch.
ComponentList OracleComponents(const BlockchainDatabase& db,
                               const FdGraph& fd_graph,
                               const DenialConstraint& q) {
  UnionFind uf(db.num_pending());
  MergeEqualityComponents(db, EqualitiesFromConstraints(db.constraints()),
                          fd_graph.valid_nodes(), uf);
  MergeEqualityComponents(db, UnreducedThetaQ(q, db.catalog()),
                          fd_graph.valid_nodes(), uf);
  return GroupComponents(fd_graph.valid_nodes(), uf);
}

std::vector<PendingId> WitnessOf(const WorldView& world) {
  std::vector<PendingId> ids;
  world.active_bits().ForEach([&](std::size_t id) { ids.push_back(id); });
  return ids;
}

/// The serial OptDCSat search (pre-check, base world, then per component in
/// order: cover filter, maximal cliques, GetMaximal, evaluate) over the
/// oracle's components.
DcSatResult OracleOpt(const BlockchainDatabase& db, const FdGraph& fd_graph,
                      const CompiledQuery& query,
                      const ComponentList& components, bool use_precheck) {
  DcSatResult result;
  result.stats.algorithm_used = DcSatAlgorithm::kOpt;
  result.stats.num_pending = db.PendingIds().size();
  if (use_precheck && !query.Evaluate(db.PendingUnionView())) {
    result.satisfied = true;
    result.stats.precheck_decided = true;
    return result;
  }
  result.stats.num_valid_nodes = fd_graph.valid_nodes().Count();
  result.stats.fd_conflict_pairs = fd_graph.num_conflict_pairs();
  ++result.stats.num_worlds_evaluated;
  if (query.Evaluate(db.BaseView())) {
    result.witness = std::vector<PendingId>{};
    return result;
  }
  result.stats.num_components = components.size();
  for (std::size_t i = 0; i < components.size() && !result.witness; ++i) {
    WorldView cover_view = db.BaseView();
    for (PendingId id : components[i]) {
      cover_view.Activate(static_cast<TupleOwner>(id));
    }
    ++result.stats.components_completed;
    if (!query.CoversConstants(cover_view)) continue;
    ++result.stats.num_components_covered;
    DynamicBitset subset(db.num_pending());
    for (PendingId id : components[i]) subset.Set(id);
    result.stats.num_cliques +=
        EnumerateMaximalCliques(
            fd_graph.conflict_lists(), subset, /*use_pivot=*/true,
            [&](const std::vector<std::size_t>& clique) {
              const WorldView world = GetMaximal(db, clique);
              ++result.stats.num_worlds_evaluated;
              if (!query.Evaluate(world)) return true;
              result.witness = WitnessOf(world);
              return false;
            })
            .cliques_reported;
  }
  result.satisfied = !result.witness.has_value();
  return result;
}

/// A random schema of two or three relations (arity 2–3, all integer), a
/// key on some of them, zero to two inclusion dependencies (self-INDs
/// included), a small consistent base, and 3–7 pending transactions over a
/// three-value domain, so that shared projections are common.
BlockchainDatabase MakeRandomInstance(Xoshiro256& rng) {
  Catalog catalog;
  const std::size_t num_relations = 2 + rng.NextBelow(2);
  std::vector<std::size_t> arity(num_relations);
  for (std::size_t r = 0; r < num_relations; ++r) {
    arity[r] = 2 + rng.NextBelow(2);
    std::vector<Attribute> attributes;
    for (std::size_t p = 0; p < arity[r]; ++p) {
      attributes.push_back(
          Attribute{"a" + std::to_string(p), ValueType::kInt, false});
    }
    EXPECT_TRUE(catalog
                    .AddRelation(RelationSchema("R" + std::to_string(r),
                                                std::move(attributes)))
                    .ok());
  }
  ConstraintSet constraints;
  for (std::size_t r = 0; r < num_relations; ++r) {
    if (!rng.NextBool(0.6)) continue;
    auto key = FunctionalDependency::Key(catalog, "R" + std::to_string(r),
                                         {"a0"});
    EXPECT_TRUE(key.ok());
    constraints.AddFd(std::move(*key));
  }
  std::vector<bool> ind_lhs(num_relations, false);
  const std::size_t num_inds = rng.NextBelow(3);
  for (std::size_t k = 0; k < num_inds; ++k) {
    const std::size_t lhs = rng.NextBelow(num_relations);
    const std::size_t rhs = rng.NextBelow(num_relations);
    const std::size_t width = 1 + rng.NextBelow(2);
    std::vector<std::string> lhs_attrs;
    std::vector<std::string> rhs_attrs;
    for (std::size_t w = 0; w < width; ++w) {
      // Distinct positions per side: position w, or its neighbour.
      lhs_attrs.push_back("a" + std::to_string((w + rng.NextBelow(2)) % 2));
      rhs_attrs.push_back("a" + std::to_string((w + rng.NextBelow(2)) % 2));
    }
    if (width == 2 && (lhs_attrs[0] == lhs_attrs[1] ||
                       rhs_attrs[0] == rhs_attrs[1])) {
      lhs_attrs.pop_back();
      rhs_attrs.pop_back();
    }
    auto ind = InclusionDependency::Create(catalog, "R" + std::to_string(lhs),
                                           lhs_attrs, "R" + std::to_string(rhs),
                                           rhs_attrs);
    EXPECT_TRUE(ind.ok());
    constraints.AddInd(std::move(*ind));
    ind_lhs[lhs] = true;
  }
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());

  auto random_tuple = [&](std::size_t r, std::int64_t first) {
    std::vector<Value> values{Value::Int(first)};
    for (std::size_t p = 1; p < arity[r]; ++p) {
      values.push_back(Value::Int(rng.NextInRange(0, 2)));
    }
    return Tuple(std::move(values));
  };
  // Base tuples with distinct keys, never on an IND's left side, so R is
  // consistent; pending tuples that collide with them become invalid.
  for (std::size_t r = 0; r < num_relations; ++r) {
    if (ind_lhs[r]) continue;
    const std::size_t base = rng.NextBelow(3);
    for (std::size_t k = 0; k < base; ++k) {
      const Tuple tuple = random_tuple(r, static_cast<std::int64_t>(k));
      EXPECT_TRUE(db->InsertCurrent("R" + std::to_string(r), tuple).ok());
    }
  }
  EXPECT_TRUE(db->ValidateCurrentState().ok());

  const std::size_t num_pending = 3 + rng.NextBelow(5);
  for (std::size_t t = 0; t < num_pending; ++t) {
    Transaction txn("P" + std::to_string(t));
    const std::size_t num_tuples = 1 + rng.NextBelow(3);
    for (std::size_t i = 0; i < num_tuples; ++i) {
      const std::size_t r = rng.NextBelow(num_relations);
      txn.Add("R" + std::to_string(r), random_tuple(r, rng.NextInRange(0, 2)));
    }
    EXPECT_TRUE(db->AddPending(txn).ok());
  }
  return std::move(*db);
}

/// A random connected positive query of 2–5 atoms over few variables and
/// constants, often repeating an atom (verbatim or with one argument
/// changed) and sometimes merging two variables with `=`.
DenialConstraint MakeRandomQuery(Xoshiro256& rng, const Catalog& catalog) {
  const char* kVars[] = {"x", "y", "z", "w"};
  for (;;) {
    std::vector<std::string> used_vars;
    auto random_arg = [&] {
      if (rng.NextBool(0.3)) return std::to_string(rng.NextInRange(0, 2));
      std::string var = kVars[rng.NextBelow(4)];
      used_vars.push_back(var);
      return var;
    };
    const std::size_t num_atoms = 2 + rng.NextBelow(4);
    std::vector<std::pair<std::size_t, std::vector<std::string>>> parts;
    for (std::size_t a = 0; a < num_atoms; ++a) {
      if (!parts.empty() && rng.NextBool(0.3)) {
        auto repeated = parts[rng.NextBelow(parts.size())];
        if (rng.NextBool(0.5)) {
          repeated.second[rng.NextBelow(repeated.second.size())] = random_arg();
        }
        parts.push_back(std::move(repeated));
        continue;
      }
      const std::size_t r = rng.NextBelow(catalog.num_relations());
      std::vector<std::string> args(catalog.schema(r).arity());
      for (std::string& arg : args) arg = random_arg();
      parts.emplace_back(r, std::move(args));
    }
    std::string text = "q() :- ";
    for (std::size_t a = 0; a < parts.size(); ++a) {
      if (a > 0) text += ", ";
      text += catalog.schema(parts[a].first).name() + "(";
      for (std::size_t i = 0; i < parts[a].second.size(); ++i) {
        text += (i > 0 ? ", " : "") + parts[a].second[i];
      }
      text += ")";
    }
    if (used_vars.size() >= 2 && rng.NextBool(0.25)) {
      text += ", " + used_vars[rng.NextBelow(used_vars.size())] + " = " +
              used_vars[rng.NextBelow(used_vars.size())];
    }
    auto q = ParseDenialConstraint(text);
    EXPECT_TRUE(q.ok()) << text;
    if (AnalyzeQuery(*q, catalog).connected) return *q;
  }
}

/// A random discard, apply or add, so Θ_I is compared after incremental
/// maintenance as well as after a full build.
void MutateRandomly(Xoshiro256& rng, BlockchainDatabase& db) {
  const std::vector<PendingId> pending = db.PendingIds();
  switch (rng.NextBelow(3)) {
    case 0:
      if (!pending.empty()) {
        EXPECT_TRUE(
            db.DiscardPending(pending[rng.NextBelow(pending.size())]).ok());
      }
      break;
    case 1:
      // May fail (the transaction conflicts with R); a failed apply changes
      // nothing.
      if (!pending.empty()) {
        (void)db.ApplyPending(pending[rng.NextBelow(pending.size())]);
      }
      break;
    default: {
      Transaction txn("late");
      const std::size_t r = rng.NextBelow(db.catalog().num_relations());
      std::vector<Value> values;
      for (std::size_t p = 0; p < db.catalog().schema(r).arity(); ++p) {
        values.push_back(Value::Int(rng.NextInRange(0, 2)));
      }
      txn.Add(db.catalog().schema(r).name(), Tuple(std::move(values)));
      EXPECT_TRUE(db.AddPending(txn).ok());
    }
  }
}

void ExpectSameResult(const DcSatResult& actual, const DcSatResult& expected,
                      const std::string& context) {
  EXPECT_EQ(actual.satisfied, expected.satisfied) << context;
  EXPECT_EQ(actual.witness, expected.witness) << context;
  const DcSatStats& a = actual.stats;
  const DcSatStats& e = expected.stats;
  EXPECT_EQ(a.algorithm_used, e.algorithm_used) << context;
  EXPECT_EQ(a.precheck_decided, e.precheck_decided) << context;
  EXPECT_EQ(a.num_pending, e.num_pending) << context;
  EXPECT_EQ(a.num_valid_nodes, e.num_valid_nodes) << context;
  EXPECT_EQ(a.fd_conflict_pairs, e.fd_conflict_pairs) << context;
  EXPECT_EQ(a.num_components, e.num_components) << context;
  EXPECT_EQ(a.num_components_covered, e.num_components_covered) << context;
  EXPECT_EQ(a.components_completed, e.components_completed) << context;
  EXPECT_EQ(a.num_cliques, e.num_cliques) << context;
  EXPECT_EQ(a.num_worlds_evaluated, e.num_worlds_evaluated) << context;
}

TEST(ThetaQReductionTest, DecomposeMatchesUnreducedMergeOnSeededInstances) {
  std::size_t decompositions = 0;
  std::size_t compile_reduced = 0;  // EqualitiesFromQuery dropped some.
  std::size_t theta_i_skipped = 0;  // Decompose skipped some.
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    Xoshiro256 rng(seed);
    BlockchainDatabase db = MakeRandomInstance(rng);
    DcSatEngine engine(&db);
    const DenialConstraint q = MakeRandomQuery(rng, db.catalog());
    // Two rounds: a fresh build, then caches patched after a mutation.
    for (int round = 0; round < 2; ++round) {
      if (round == 1) MutateRandomly(rng, db);
      const std::string context = "seed " + std::to_string(seed) + " round " +
                                  std::to_string(round) + ": " + q.ToString();
      const FdGraph& fd_graph = engine.PrepareSteadyState();
      auto compiled = engine.GetOrCompile(q);
      ASSERT_TRUE(compiled.ok()) << context;
      const std::vector<EqualityConstraint>& theta_q =
          (*compiled)->equalities();

      std::size_t merged = 0;
      const ComponentList actual = *engine.Decompose(&theta_q, &merged);
      const ComponentList expected = OracleComponents(db, fd_graph, q);
      ++decompositions;
      ASSERT_EQ(actual.members, expected.members) << context;
      ASSERT_EQ(actual.offsets, expected.offsets) << context;
      const std::size_t unreduced = UnreducedThetaQ(q, db.catalog()).size();
      EXPECT_LE(theta_q.size(), unreduced) << context;
      EXPECT_LE(merged, theta_q.size()) << context;
      compile_reduced += theta_q.size() < unreduced ? 1 : 0;
      theta_i_skipped += merged < theta_q.size() ? 1 : 0;

      for (const bool precheck : {true, false}) {
        DcSatOptions options;
        options.algorithm = DcSatAlgorithm::kOpt;
        options.use_precheck = precheck;
        auto result = engine.Check(q, options);
        ASSERT_TRUE(result.ok()) << context;
        const DcSatResult oracle =
            OracleOpt(db, fd_graph, **compiled, expected, precheck);
        ExpectSameResult(*result, oracle,
                         context + " precheck=" + std::to_string(precheck));
        // Decompose ran unless the pre-check or the base world decided.
        const bool decomposed = !oracle.stats.precheck_decided &&
                                oracle.witness != std::vector<PendingId>{};
        EXPECT_EQ(result->stats.theta_q_merged, decomposed ? merged : 0)
            << context;
      }
    }
  }
  EXPECT_EQ(decompositions, 4000u);
  // The differential exercises both halves of the reduction.
  EXPECT_GT(compile_reduced, 200u);
  EXPECT_GT(theta_i_skipped, 50u);
}

TEST(ThetaQReductionTest, NaiveMergesNoThetaQ) {
  Xoshiro256 rng(7);
  BlockchainDatabase db = MakeRandomInstance(rng);
  DcSatEngine engine(&db);
  DcSatOptions naive;
  naive.algorithm = DcSatAlgorithm::kNaive;
  naive.use_precheck = false;
  auto result = engine.Check(MakeRandomQuery(rng, db.catalog()), naive);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.theta_q_merged, 0u);
}

// Figure 6 shapes on S100: the Θ_q equalities each check still merges.
class ThetaQMergedOnS100Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto workload = bitcoin::GenerateWorkload(workload::S100().params);
    ASSERT_TRUE(workload.ok());
    auto db = bitcoin::BuildBlockchainDatabase(workload->node);
    ASSERT_TRUE(db.ok());
    meta_ = new bitcoin::WorkloadMetadata(workload->metadata);
    db_ = new BlockchainDatabase(std::move(*db));
    engine_ = new DcSatEngine(db_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete db_;
    delete meta_;
    engine_ = nullptr;
    db_ = nullptr;
    meta_ = nullptr;
  }

  /// Runs OptDCSat on `q`; returns (compiled Θ_q size, merged count).
  static std::pair<std::size_t, std::size_t> Merged(const DenialConstraint& q) {
    DcSatOptions opt;
    opt.algorithm = DcSatAlgorithm::kOpt;
    auto result = engine_->Check(q, opt);
    EXPECT_TRUE(result.ok());
    // Every shape below is possible and reaches the decomposition.
    EXPECT_FALSE(result->satisfied) << q.ToString();
    EXPECT_GT(result->stats.num_components, 0u) << q.ToString();
    auto compiled = engine_->GetOrCompile(q);
    EXPECT_TRUE(compiled.ok());
    return {(*compiled)->equalities().size(), result->stats.theta_q_merged};
  }

  static bitcoin::WorkloadMetadata* meta_;
  static BlockchainDatabase* db_;
  static DcSatEngine* engine_;
};

bitcoin::WorkloadMetadata* ThetaQMergedOnS100Test::meta_ = nullptr;
BlockchainDatabase* ThetaQMergedOnS100Test::db_ = nullptr;
DcSatEngine* ThetaQMergedOnS100Test::engine_ = nullptr;

TEST_F(ThetaQMergedOnS100Test, SimpleMergesNothing) {
  // One atom: Θ_q is empty.
  EXPECT_EQ(Merged(workload::SimpleUnsat(*meta_)),
            (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST_F(ThetaQMergedOnS100Test, PossiblePathOfTwoIsImpliedByTheSpendInd) {
  // X = Y, so TxOut[0,1,2,3] = TxIn[0,1,2,3]: the spend IND, reversed.
  EXPECT_EQ(Merged(workload::PathUnsat(*meta_, 2)),
            (std::pair<std::size_t, std::size_t>{1, 0}));
}

TEST_F(ThetaQMergedOnS100Test, PathOfSevenMergesTwo) {
  // 16 pairwise equalities: six TxOut[0,1,3] = TxIn[0,1,3], five
  // TxIn[4] = TxOut[0] (the has-output IND) and five TxIn[4] = TxIn[0]
  // (consecutive spends). Compiled: one of each; merged: the first and the
  // last, which no Θ_I equality implies.
  EXPECT_EQ(UnreducedThetaQ(workload::PathUnsat(*meta_, 7), db_->catalog())
                .size(),
            16u);
  EXPECT_EQ(Merged(workload::PathUnsat(*meta_, 7)),
            (std::pair<std::size_t, std::size_t>{3, 2}));
}

TEST_F(ThetaQMergedOnS100Test, StarOfEightMergesOne) {
  // 36 pairwise equalities: eight TxIn[1,4] = TxOut[1,0] (implied by the
  // has-output IND) and 28 TxIn[2] = TxIn[2] (the shared pk).
  EXPECT_EQ(UnreducedThetaQ(workload::StarUnsat(*meta_, 8), db_->catalog())
                .size(),
            36u);
  EXPECT_EQ(Merged(workload::StarUnsat(*meta_, 8)),
            (std::pair<std::size_t, std::size_t>{2, 1}));
}

}  // namespace
}  // namespace bcdb
