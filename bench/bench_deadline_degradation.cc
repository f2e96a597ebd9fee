// Graceful degradation under a check budget: the verdict-coverage curve.
//
// DCSat is CoNP-complete for {key, ind} constraint sets (paper Theorem 1),
// so any latency SLO must tolerate checks that cannot finish. This bench
// sweeps the per-check budget over the conflict-ladder blowup workload
// (k double-spend pairs => |Poss(D)| = 3^k under a non-monotone
// constraint) and records, per (ladder size, budget) cell, whether the
// check still decided, how much of the search it completed, and how far
// past its deadline it ran — the curve showing coverage degrade gracefully
// from "everything decided" (unlimited) to "only the small instances
// decided" (tight budgets), with the overshoot staying within the
// cooperative-preemption envelope.
//
// Writes BENCH_deadline_degradation.json. --smoke shrinks the sweep for CI.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/dcsat.h"
#include "query/parser.h"
#include "util/stopwatch.h"

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

struct Cell {
  std::string workload;
  std::size_t conflict_pairs = 0;
  double budget_ms = 0;  // 0 = unlimited.
  bool decided = false;
  bool satisfied = false;
  std::size_t worlds = 0;
  std::size_t cliques = 0;
  double seconds = 0;
  double overshoot = 0;  // elapsed / budget; 0 when unlimited.
};

void WriteJson(const std::string& path, const std::vector<Cell>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "  {\"workload\": \"%s\", \"conflict_pairs\": %zu, "
                 "\"budget_ms\": %.4f, \"decided\": %s, \"satisfied\": %s, "
                 "\"worlds\": %zu, \"cliques\": %zu, \"seconds\": %.6f, "
                 "\"overshoot\": %.3f}%s\n",
                 c.workload.c_str(), c.conflict_pairs, c.budget_ms,
                 c.decided ? "true" : "false", c.satisfied ? "true" : "false",
                 c.worlds, c.cliques, c.seconds, c.overshoot,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "[json] wrote %zu rows to %s\n", cells.size(),
               path.c_str());
}

Cell RunCell(const char* workload, DcSatEngine& engine,
             const DenialConstraint& q, std::size_t k, double budget_ms) {
  DcSatOptions options;
  options.budget.deadline_ms = budget_ms;
  Stopwatch watch;
  auto result = engine.Check(q, options);
  const double seconds = watch.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "check failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  Cell cell;
  cell.workload = workload;
  cell.conflict_pairs = k;
  cell.budget_ms = budget_ms;
  cell.decided = result->decided;
  cell.satisfied = result->satisfied;
  cell.worlds = result->stats.num_worlds_evaluated;
  cell.cliques = result->stats.num_cliques;
  cell.seconds = seconds;
  cell.overshoot = budget_ms > 0 ? seconds * 1e3 / budget_ms : 0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::ApplySmokeFlag(&argc, argv);

  // Exhaustive-path curve: the non-monotone count constraint forces exact
  // 3^k possible-world enumeration; certifying it satisfied needs the full
  // search, so tight budgets must leave the large ladders undecided.
  std::vector<std::size_t> ladder_sizes =
      smoke ? std::vector<std::size_t>{2, 4, 6}
            : std::vector<std::size_t>{2, 4, 6, 8, 10};
  std::vector<double> budgets_ms =
      smoke ? std::vector<double>{0.05, 5, 0}
            : std::vector<double>{0.01, 0.1, 1, 10, 100, 0};

  auto exhaustive_q = ParseDenialConstraint("[q(count()) :- R(x, y)] = 99");
  // Monotone clique-path curve on the same ladder, with OptDCSat requested
  // explicitly so the budget gates the Bron–Kerbosch search.
  auto monotone_q = ParseDenialConstraint("q() :- R(x, 0), R(x, 1)");
  if (!exhaustive_q.ok() || !monotone_q.ok()) std::abort();

  std::vector<Cell> cells;
  std::printf("%-11s %6s %10s %8s %10s %10s %9s\n", "workload", "k",
              "budget_ms", "decided", "worlds", "seconds", "overshoot");
  for (std::size_t k : ladder_sizes) {
    BlockchainDatabase db = MakeConflictLadder(k);
    DcSatEngine engine(&db);
    engine.PrepareSteadyState();
    for (double budget_ms : budgets_ms) {
      Cell cell = RunCell("exhaustive", engine, *exhaustive_q, k, budget_ms);
      std::printf("%-11s %6zu %10.2f %8s %10zu %10.6f %9.2f\n", "exhaustive",
                  k, budget_ms, cell.decided ? "yes" : "no", cell.worlds,
                  cell.seconds, cell.overshoot);
      cells.push_back(cell);
    }
    for (double budget_ms : budgets_ms) {
      DcSatOptions options;
      options.algorithm = DcSatAlgorithm::kOpt;
      options.budget.deadline_ms = budget_ms;
      Stopwatch watch;
      auto result = engine.Check(*monotone_q, options);
      if (!result.ok()) std::abort();
      Cell cell;
      cell.workload = "monotone";
      cell.conflict_pairs = k;
      cell.budget_ms = budget_ms;
      cell.decided = result->decided;
      cell.satisfied = result->satisfied;
      cell.worlds = result->stats.num_worlds_evaluated;
      cell.cliques = result->stats.num_cliques;
      cell.seconds = watch.ElapsedSeconds();
      cell.overshoot =
          budget_ms > 0 ? cell.seconds * 1e3 / budget_ms : 0;
      std::printf("%-11s %6zu %10.2f %8s %10zu %10.6f %9.2f\n", "monotone", k,
                  budget_ms, cell.decided ? "yes" : "no", cell.worlds,
                  cell.seconds, cell.overshoot);
      cells.push_back(cell);
    }
  }

  // Coverage summary per budget: the headline degradation curve.
  std::printf("\n%10s %12s\n", "budget_ms", "coverage");
  for (double budget_ms : budgets_ms) {
    std::size_t total = 0;
    std::size_t decided = 0;
    for (const Cell& cell : cells) {
      if (cell.budget_ms == budget_ms) {
        ++total;
        if (cell.decided) ++decided;
      }
    }
    std::printf("%10.2f %9zu/%zu\n", budget_ms, decided, total);
  }

  WriteJson("BENCH_deadline_degradation.json", cells);
  return 0;
}
