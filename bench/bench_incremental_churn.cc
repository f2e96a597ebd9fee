// Steady-state mempool churn: per-mutation cost of keeping the DCSat
// caches (fd-transaction graph, Θ_I components, validity bits) warm via
// the mutation-delta log versus rebuilding them from scratch after every
// database version bump (paper Section 6.3: in steady state the structures
// are maintained as transactions arrive, not recomputed per check).
//
// Each churn step adds one pending transaction and evicts the previous
// one — the canonical mempool add/evict cycle — then times (a) a DCSat
// check on a long-lived engine that patches its caches incrementally vs a
// fresh engine built for the step, and (b) a ConstraintMonitor::Poll on a
// long-lived monitor that skips clean constraints vs the first poll of a
// fresh monitor, which evaluates everything from scratch (its registration
// is not timed). The two sides run in separate passes over two identically
// prepared copies of the dataset.
//
// Standalone timer (no google-benchmark): emits a human table on stderr
// and the machine-readable BENCH_incremental_churn.json. Pass --smoke (or
// BCDB_BENCH_SMOKE=1) for a seconds-scale CI run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/monitor.h"

namespace {

using namespace bcdb;
using namespace bcdb::bench;
using namespace bcdb::workload;

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0.0 : xs[xs.size() / 2];
}

void AddStanding(ConstraintMonitor& monitor,
                 const bitcoin::WorkloadMetadata& meta) {
  const std::string pks[] = {meta.rich_pk, meta.star_pk, meta.quiet_pk,
                             "ChurnPk"};
  for (const std::string& pk : pks) {
    auto handle = monitor.Add("paid " + pk, MakeSimpleConstraint(pk));
    if (!handle.ok()) {
      std::fprintf(stderr, "monitor add failed: %s\n",
                   handle.status().ToString().c_str());
      std::abort();
    }
  }
}

/// One churn step: a transaction enters the mempool and the previous churn
/// transaction (`*previous`) is evicted. Fresh (txId, ser) keys keep the
/// database consistent and the pending-set size constant.
void ChurnStep(BlockchainDatabase& db, std::size_t step, PendingId* previous) {
  Transaction incoming("churn-" + std::to_string(step));
  incoming.Add(bitcoin::kTxOut,
               Tuple({Value::Int(static_cast<std::int64_t>(10'000'000 + step)),
                      Value::Int(0), Value::Str("ChurnPk"), Value::Int(1)}));
  auto id = db.AddPending(incoming);
  if (!id.ok()) {
    std::fprintf(stderr, "churn add failed: %s\n",
                 id.status().ToString().c_str());
    std::exit(1);
  }
  if (*previous != kNoPendingId && !db.DiscardPending(*previous).ok()) {
    std::fprintf(stderr, "churn evict failed\n");
    std::exit(1);
  }
  *previous = *id;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = ApplySmokeFlag(&argc, argv);
  const std::size_t steps = smoke ? 8 : 60;

  auto spec = smoke ? WithPendingTotal(DefaultDataset(), 600)
                    : DefaultDataset();
  DcSatOptions options;
  options.num_threads = 1;

  // Pass 1, the maintained path: the long-lived engine (`Prepare`'s) and a
  // long-lived monitor patch their caches from the mutation log, and
  // nothing else runs between their measurements.
  std::vector<double> check_incremental, poll_incremental;
  std::vector<bool> verdicts;
  std::string dataset_name;
  {
    auto data = Prepare(spec);
    dataset_name = data->name + (smoke ? "_smoke" : "");
    BlockchainDatabase& db = *data->db;
    DcSatEngine& incremental_engine = *data->engine;
    ConstraintMonitor incremental_monitor(&db);
    AddStanding(incremental_monitor, data->metadata);
    const DenialConstraint q = SimpleSat(data->metadata);

    // Warm the engine and monitor (the first poll evaluates everything)
    // and the indexes.
    (void)CheckOrDie(incremental_engine, q, options);
    if (!incremental_monitor.Poll(options).ok()) {
      std::fprintf(stderr, "warm-up poll failed\n");
      return 1;
    }
    PendingId previous = kNoPendingId;
    for (std::size_t step = 0; step < steps; ++step) {
      ChurnStep(db, step, &previous);
      Stopwatch inc_watch;
      const DcSatResult inc = CheckOrDie(incremental_engine, q, options);
      check_incremental.push_back(inc_watch.ElapsedSeconds());
      verdicts.push_back(inc.satisfied);

      Stopwatch inc_poll_watch;
      if (!incremental_monitor.Poll(options).ok()) return 1;
      poll_incremental.push_back(inc_poll_watch.ElapsedSeconds());
    }

    const SteadyStateStats& stats = incremental_engine.steady_state_stats();
    if (stats.incremental_batches == 0) {
      std::fprintf(stderr, "incremental engine never took the delta path\n");
      return 1;
    }
    std::fprintf(stderr,
                 "[steady-state] engine: %zu incremental batches (%zu "
                 "events), %zu full rebuilds; monitor engine: %zu batches; "
                 "monitor skipped %zu / evaluated %zu constraints\n",
                 stats.incremental_batches, stats.incremental_events,
                 stats.full_rebuilds,
                 incremental_monitor.engine().steady_state_stats()
                     .incremental_batches,
                 incremental_monitor.poll_stats().constraints_skipped,
                 incremental_monitor.poll_stats().constraints_evaluated);
  }

  // Pass 2, the full-rebuild baselines: the same churn over an identically
  // prepared copy of the dataset, with a fresh engine and a fresh monitor
  // per step (registration untimed). It is a separate pass because building
  // them between the maintained measurements pushed the maintained
  // structures out of cache and slowed those by 10-50%.
  std::vector<double> check_full, poll_full;
  {
    auto data = Prepare(spec);
    BlockchainDatabase& db = *data->db;
    const DenialConstraint q = SimpleSat(data->metadata);
    (void)CheckOrDie(*data->engine, q, options);  // Builds the indexes.
    PendingId previous = kNoPendingId;
    for (std::size_t step = 0; step < steps; ++step) {
      ChurnStep(db, step, &previous);
      {
        // Only the check is timed: the compile cache is warmed first, so
        // the check pays for the full build alone.
        DcSatEngine full_engine(&db);
        if (!full_engine.GetOrCompile(q).ok()) return 1;
        Stopwatch full_watch;
        const DcSatResult full = CheckOrDie(full_engine, q, options);
        check_full.push_back(full_watch.ElapsedSeconds());
        if (full.satisfied != verdicts[step]) {
          std::fprintf(stderr,
                       "step %zu: incremental/full verdicts diverge\n", step);
          return 1;
        }
      }
      ConstraintMonitor full_monitor(&db);
      AddStanding(full_monitor, data->metadata);
      Stopwatch full_poll_watch;
      if (!full_monitor.Poll(options).ok()) return 1;
      poll_full.push_back(full_poll_watch.ElapsedSeconds());
    }
  }

  struct Mode {
    const char* workload;
    std::vector<double>* times;
    double baseline_median;
  };
  const double check_full_median = Median(check_full);
  const double poll_full_median = Median(poll_full);
  Mode modes[] = {
      {"check_incremental", &check_incremental, check_full_median},
      {"check_full_rebuild", &check_full, check_full_median},
      {"poll_incremental", &poll_incremental, poll_full_median},
      {"poll_full_rebuild", &poll_full, poll_full_median},
  };
  std::vector<BenchJsonRow> rows;
  for (const Mode& mode : modes) {
    const double median = Median(*mode.times);
    BenchJsonRow row;
    row.dataset = dataset_name;
    row.workload = mode.workload;
    row.threads = 1;
    row.seconds = median;
    row.speedup = median > 0 ? mode.baseline_median / median : 1.0;
    row.satisfied = verdicts.back();
    rows.push_back(row);
    std::fprintf(stderr, "%-22s %-20s median %9.3f ms  vs full %.1fx\n",
                 dataset_name.c_str(), mode.workload, median * 1e3,
                 row.speedup);
  }

  WriteBenchJson("BENCH_incremental_churn.json", rows);

  // The whole point: at steady state the delta path must beat the rebuild
  // path on the same churn.
  if (Median(check_incremental) >= check_full_median) {
    std::fprintf(stderr,
                 "FAIL: incremental check no faster than full rebuild\n");
    return 1;
  }
  return 0;
}
