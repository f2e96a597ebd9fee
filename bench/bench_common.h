#ifndef BCDB_BENCH_BENCH_COMMON_H_
#define BCDB_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>
#include <benchmark/benchmark.h>

#include "bitcoin/generator.h"
#include "bitcoin/to_relational.h"
#include "core/dcsat.h"
#include "util/stopwatch.h"
#include "workload/constraints.h"
#include "workload/datasets.h"

namespace bcdb {
namespace bench {

/// Parses and strips the --smoke flag (also honours BCDB_BENCH_SMOKE=1):
/// CI smoke runs shrink datasets/iterations to finish in seconds while
/// still walking every code path the bench exercises.
inline bool ApplySmokeFlag(int* argc, char** argv) {
  bool smoke =  // NOLINT(concurrency-mt-unsafe): read-only, no setenv anywhere
      std::getenv("BCDB_BENCH_SMOKE") != nullptr;
  int out = 0;
  for (int i = 0; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return smoke;
}

/// Builds an argv that defaults google-benchmark's JSON file output to
/// `json_path` (e.g. BENCH_micro_substrate.json). The defaults are inserted
/// *before* the caller's flags, so an explicit --benchmark_out still wins.
/// The returned vector borrows argv's pointers plus two static flag strings;
/// it stays valid for main's lifetime.
inline std::vector<char*> WithDefaultJsonOut(int* argc, char** argv,
                                             const std::string& json_path) {
  static std::string out_flag;
  static std::string format_flag = "--benchmark_out_format=json";
  out_flag = "--benchmark_out=" + json_path;
  std::vector<char*> args;
  args.push_back(argv[0]);
  args.push_back(out_flag.data());
  args.push_back(format_flag.data());
  for (int i = 1; i < *argc; ++i) args.push_back(argv[i]);
  return args;
}

/// One row of the machine-readable perf trajectory emitted next to a bench.
struct BenchJsonRow {
  std::string dataset;
  std::string workload;
  std::size_t threads = 1;
  double seconds = 0;
  double speedup = 1;
  bool satisfied = false;
};

/// Writes rows as a JSON array to `path` (e.g. BENCH_parallel_scaling.json)
/// so future sessions can track perf regressions without re-parsing logs.
inline void WriteBenchJson(const std::string& path,
                           const std::vector<BenchJsonRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchJsonRow& r = rows[i];
    std::fprintf(f,
                 "  {\"dataset\": \"%s\", \"workload\": \"%s\", "
                 "\"threads\": %zu, \"seconds\": %.6f, \"speedup\": %.3f, "
                 "\"satisfied\": %s}%s\n",
                 r.dataset.c_str(), r.workload.c_str(), r.threads, r.seconds,
                 r.speedup, r.satisfied ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "[json] wrote %zu rows to %s\n", rows.size(),
               path.c_str());
}

/// A generated dataset ready for DCSat runs: the simulated node, its
/// relational image, and the landmark metadata for constraint construction.
struct PreparedDataset {
  std::string name;
  bitcoin::WorkloadMetadata metadata;
  bitcoin::ChainStats chain_stats;
  bitcoin::ChainStats mempool_stats;
  std::size_t chain_blocks = 0;
  std::unique_ptr<BlockchainDatabase> db;
  std::unique_ptr<DcSatEngine> engine;
};

/// Generates `spec` and builds the blockchain database. Aborts on failure
/// (benchmarks have no error channel worth handling).
inline std::unique_ptr<PreparedDataset> Prepare(
    const workload::DatasetSpec& spec) {
  Stopwatch watch;
  auto generated = bitcoin::GenerateWorkload(spec.params);
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset %s generation failed: %s\n",
                 spec.name.c_str(), generated.status().ToString().c_str());
    std::abort();
  }
  auto db = bitcoin::BuildBlockchainDatabase(generated->node);
  if (!db.ok()) {
    std::fprintf(stderr, "dataset %s load failed: %s\n", spec.name.c_str(),
                 db.status().ToString().c_str());
    std::abort();
  }
  auto prepared = std::make_unique<PreparedDataset>();
  prepared->name = spec.name;
  prepared->metadata = generated->metadata;
  prepared->chain_stats = generated->node.chain().Stats();
  prepared->mempool_stats = generated->node.mempool().Stats();
  prepared->chain_blocks = generated->node.chain().blocks().size();
  prepared->db = std::make_unique<BlockchainDatabase>(std::move(*db));
  prepared->engine = std::make_unique<DcSatEngine>(prepared->db.get());
  // Warm the steady-state structures (paper Section 6.3: these are
  // maintained incrementally as transactions arrive, not per query).
  prepared->engine->PrepareSteadyState();
  std::fprintf(stderr,
               "[prepare] %s: %zu blocks, %zu chain txs, %zu pending "
               "(%.1fs)\n",
               spec.name.c_str(), prepared->chain_blocks,
               prepared->chain_stats.transactions,
               prepared->db->num_pending(), watch.ElapsedSeconds());
  return prepared;
}

/// Runs one DCSat check and aborts on error (benchmark misconfiguration).
inline DcSatResult CheckOrDie(DcSatEngine& engine, const DenialConstraint& q,
                              const DcSatOptions& options) {
  auto result = engine.Check(q, options);
  if (!result.ok()) {
    std::fprintf(stderr, "DCSat(%s) failed: %s\n", q.ToString().c_str(),
                 result.status().ToString().c_str());
    std::abort();
  }
  return *result;
}

/// The result counters of a registered DCSat run: satisfied flag, worlds
/// evaluated, cliques enumerated, components, Θ_q equalities merged, whether
/// the partition came from the decomposition memo, and the appendability
/// probes.
inline void SetDcSatCounters(benchmark::State& state, const DcSatResult& last) {
  state.counters["satisfied"] = last.satisfied ? 1 : 0;
  state.counters["worlds"] =
      static_cast<double>(last.stats.num_worlds_evaluated);
  state.counters["cliques"] = static_cast<double>(last.stats.num_cliques);
  state.counters["components"] =
      static_cast<double>(last.stats.num_components);
  state.counters["theta_q_merged"] =
      static_cast<double>(last.stats.theta_q_merged);
  state.counters["decomposition_reused"] =
      last.stats.decomposition_reused ? 1 : 0;
  state.counters["maximal_probes"] =
      static_cast<double>(last.stats.maximal_probes);
}

/// Registers one DCSat run as a google-benchmark timer with result counters.
/// Every iteration repeats one check at one database version, so from the
/// second check on an Opt run reads its partition from the decomposition
/// memo: a warm check.
inline void RegisterDcSat(const std::string& name, DcSatEngine* engine,
                          DenialConstraint q, DcSatOptions options) {
  // One warm-up run so lazily-built hash indexes (the analogue of the
  // paper's Postgres indexes, maintained in steady state) don't distort the
  // first timed iteration.
  (void)CheckOrDie(*engine, q, options);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [engine, q = std::move(q), options](benchmark::State& state) {
        DcSatResult last;
        for (auto _ : state) {
          last = CheckOrDie(*engine, q, options);
          benchmark::DoNotOptimize(last.satisfied);
        }
        SetDcSatCounters(state, last);
      })
      ->Unit(benchmark::kMillisecond);
}

/// Like RegisterDcSat, but each iteration is the first check after a
/// database mutation: untimed, it inserts and removes one base TxOut tuple
/// that no transaction references (the data ends equal, the version moves)
/// and refreshes the steady-state caches, which empties the decomposition
/// memo; then it times the check. A cold check.
inline void RegisterDcSatCold(const std::string& name, PreparedDataset* data,
                              DenialConstraint q, DcSatOptions options) {
  (void)CheckOrDie(*data->engine, q, options);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [data, q = std::move(q), options](benchmark::State& state) {
        const Tuple bump({Value::Int(-1), Value::Int(0),
                          Value::Str("bench-version-bump"), Value::Int(0)});
        DcSatResult last;
        for (auto _ : state) {
          state.PauseTiming();
          if (!data->db->InsertCurrent(bitcoin::kTxOut, bump).ok() ||
              !data->db->RemoveCurrent(bitcoin::kTxOut, bump).ok()) {
            std::fprintf(stderr, "version bump failed\n");
            std::abort();
          }
          data->engine->PrepareSteadyState();
          state.ResumeTiming();
          last = CheckOrDie(*data->engine, q, options);
          benchmark::DoNotOptimize(last.satisfied);
        }
        SetDcSatCounters(state, last);
      })
      ->Unit(benchmark::kMillisecond)
      // google-benchmark sizes a run by timed time alone, so on a fast
      // check the untimed bump and refresh would dominate the wall time.
      ->Iterations(500);
}

inline DcSatOptions NaiveOptions() {
  DcSatOptions options;
  options.algorithm = DcSatAlgorithm::kNaive;
  return options;
}

inline DcSatOptions OptOptions() {
  DcSatOptions options;
  options.algorithm = DcSatAlgorithm::kOpt;
  return options;
}

}  // namespace bench
}  // namespace bcdb

#endif  // BCDB_BENCH_BENCH_COMMON_H_
