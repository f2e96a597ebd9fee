// Theorem-1 intractability made measurable: outside the monotone/tractable
// fragments DCSat falls back to exact possible-world enumeration, and with
// k independent double-spend pairs |Poss(D)| = 3^k (neither / first /
// second per pair). This bench sweeps k and shows the exponential wall the
// paper's CoNP-completeness results predict — and why the monotone
// algorithms' pre-check/clique machinery matters.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/dcsat.h"
#include "query/parser.h"

namespace {

using namespace bcdb;

/// R(a, b) with key a; pending pairs (i,0) vs (i,1) for i < k.
BlockchainDatabase MakeConflictLadder(std::size_t k) {
  Catalog catalog;
  if (!catalog
           .AddRelation(RelationSchema(
               "R", {Attribute{"a", ValueType::kInt, false},
                     Attribute{"b", ValueType::kInt, false}}))
           .ok()) {
    std::abort();
  }
  ConstraintSet constraints;
  constraints.AddFd(*FunctionalDependency::Key(catalog, "R", {"a"}));
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  if (!db.ok()) std::abort();
  for (std::size_t i = 0; i < k; ++i) {
    for (std::int64_t b : {0, 1}) {
      Transaction txn;
      txn.Add("R",
              Tuple({Value::Int(static_cast<std::int64_t>(i)), Value::Int(b)}));
      if (!db->AddPending(txn).ok()) std::abort();
    }
  }
  return std::move(*db);
}

void BM_ExhaustiveWorlds(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  BlockchainDatabase db = MakeConflictLadder(k);
  DcSatEngine engine(&db);
  // Non-monotone (= comparison): forces the exhaustive algorithm. The
  // constraint is satisfied, so every world must be enumerated.
  auto q = ParseDenialConstraint("[q(count()) :- R(x, y)] = 99");
  if (!q.ok()) std::abort();
  std::size_t worlds = 0;
  for (auto _ : state) {
    auto result = engine.Check(*q);
    if (!result.ok() || !result->decided ||
        result->stats.algorithm_used != DcSatAlgorithm::kExhaustive) {
      state.SkipWithError("exhaustive path not taken or not finished");
      break;
    }
    worlds = result->stats.num_worlds_evaluated;
    benchmark::DoNotOptimize(result->satisfied);
  }
  state.counters["worlds"] = static_cast<double>(worlds);
  state.counters["conflict_pairs"] = static_cast<double>(k);
}

void BM_MonotoneSameInstance(benchmark::State& state) {
  // Contrast: the same conflict ladder under a *monotone* constraint is
  // decided by the tractable FD-only fragment in polynomial time.
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  BlockchainDatabase db = MakeConflictLadder(k);
  DcSatEngine engine(&db);
  auto q = ParseDenialConstraint("q() :- R(x, 0), R(x, 1)");
  if (!q.ok()) std::abort();
  for (auto _ : state) {
    auto result = engine.Check(*q);
    if (!result.ok() || !result->satisfied) {
      state.SkipWithError("expected a satisfied verdict");
      break;
    }
    benchmark::DoNotOptimize(result->satisfied);
  }
  state.counters["conflict_pairs"] = static_cast<double>(k);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("Blowup/Exhaustive3PowK", BM_ExhaustiveWorlds)
      ->DenseRange(2, 10, 2)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Blowup/MonotoneTractable",
                               BM_MonotoneSameInstance)
      ->DenseRange(2, 10, 2)
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
