// Full-lifecycle mempool churn at block-interval rates: every mutation kind
// the database publishes — pending adds, fee-capped evictions, replace-by-
// fee (discard + re-add), block confirmation (ApplyPending + a coinbase
// InsertCurrent), and chain reorgs (UnapplyPending + RemoveCurrent of the
// orphaned coinbase) — driven at ratios shaped like Bitcoin mainnet's
// (arrivals ~2x confirmations per block interval, evictions and
// replacements a small fraction of arrivals, shallow reorgs every few
// blocks).
//
// Times a DCSat check per block interval on a long-lived engine that
// patches its steady-state caches (fd graph determinant buckets, Θ_I
// components, validity bits) from the mutation log versus a fresh engine
// built for the interval, and a long-lived monitor's poll versus the first
// poll of a fresh monitor (registration untimed). The two sides run in
// separate passes over two identically prepared copies of the dataset. The
// base-state events must be handled incrementally: the run fails if the
// engine ever takes the fallbacks_base_insert rebuild path, or if the
// incremental check is not decisively faster (>= 5x in the full
// configuration).
//
// Standalone timer (no google-benchmark): emits a human table on stderr and
// the machine-readable BENCH_mempool_lifecycle.json. Pass --smoke (or
// BCDB_BENCH_SMOKE=1) for a seconds-scale CI run.

#include <algorithm>
#include <cstdio>
#include <deque>
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

/// One synthetic mempool payment: a single fresh TxOut row. Fresh txids keep
/// the (txId, ser) key clean so churn never manufactures contradictions.
Transaction ChurnTxn(std::int64_t txid, const std::string& pk) {
  Transaction txn("lifecycle-" + std::to_string(txid));
  txn.Add(bitcoin::kTxOut,
          Tuple({Value::Int(txid), Value::Int(1), Value::Str(pk),
                 Value::Int(1000)}));
  return txn;
}

struct LifecycleRates {
  std::size_t intervals = 0;
  std::size_t adds = 0;      // arrivals per block interval
  std::size_t confirms = 0;  // transactions per mined block
  std::size_t evicts = 0;    // fee-capped evictions per interval
  std::size_t replaces = 0;  // replace-by-fee per interval
  std::size_t reorg_every = 0;  // a 1-block reorg every Nth interval
};

/// The block-interval churn schedule over one database. Deterministic, so
/// replaying it over an identically prepared copy of the dataset reaches
/// the same states interval by interval.
class LifecycleSchedule {
 public:
  LifecycleSchedule(BlockchainDatabase* db, const LifecycleRates& rates,
                    const bitcoin::WorkloadMetadata& meta)
      : db_(db),
        rates_(rates),
        cycle_pks_{"ChurnPk", meta.quiet_pk, "RbfPk", meta.star_pk} {}

  /// Seeds the churn queue so every interval confirms/evicts transactions
  /// added in *earlier* delta batches (the engine deliberately rebuilds on
  /// an add-and-apply of the same transaction inside one batch; a mempool
  /// never confirms a transaction the instant it arrives either).
  void Seed() {
    for (std::size_t s = 0; s < 64; ++s) {
      auto id = db_->AddPending(ChurnTxn(next_txid_++, cycle_pks_[s % 4]));
      if (!id.ok()) Die("seed add", id.status());
      live_.push_back(*id);
    }
  }

  /// Applies the mutations of block interval `interval`.
  void RunInterval(std::size_t interval) {
    const bool reorg_now = rates_.reorg_every > 0 && interval > 0 &&
                           interval % rates_.reorg_every == 0 &&
                           !last_block_.empty();
    if (reorg_now) {
      // A competing branch displaced the last block: its transactions fall
      // back to the mempool and its coinbase vanishes from current state.
      for (PendingId id : last_block_) {
        Status restored = db_->UnapplyPending(id);
        if (!restored.ok()) Die("unapply", restored);
        live_.push_back(id);
        ++total_restored;
      }
      Status removed = db_->RemoveCurrent(bitcoin::kTxOut, last_coinbase_);
      if (!removed.ok()) Die("remove coinbase", removed);
      last_block_.clear();
      ++total_reorgs;
    } else {
      // Mine: confirm the oldest pending churn transactions plus a fresh
      // coinbase output entering the current state.
      last_block_.clear();
      for (std::size_t c = 0; c < rates_.confirms && !live_.empty(); ++c) {
        const PendingId id = live_.front();
        live_.pop_front();
        Status applied = db_->ApplyPending(id);
        if (!applied.ok()) Die("apply", applied);
        last_block_.push_back(id);
        ++total_confirms;
      }
      last_coinbase_ = Tuple({Value::Int(next_txid_++), Value::Int(1),
                              Value::Str("LifecycleMinerPk"),
                              Value::Int(5'000'000'000)});
      Status mined = db_->InsertCurrent(bitcoin::kTxOut, last_coinbase_);
      if (!mined.ok()) Die("insert coinbase", mined);
    }

    // Fee-capped eviction of the oldest entries.
    for (std::size_t e = 0; e < rates_.evicts && !live_.empty(); ++e) {
      const PendingId id = live_.front();
      live_.pop_front();
      Status evicted = db_->DiscardPending(id);
      if (!evicted.ok()) Die("evict", evicted);
      ++total_evicts;
    }

    // Replace-by-fee: the old payment leaves, its replacement arrives.
    for (std::size_t r = 0; r < rates_.replaces && !live_.empty(); ++r) {
      const PendingId id = live_.front();
      live_.pop_front();
      Status dropped = db_->DiscardPending(id);
      if (!dropped.ok()) Die("rbf discard", dropped);
      auto replacement = db_->AddPending(ChurnTxn(next_txid_++, "RbfPk"));
      if (!replacement.ok()) Die("rbf add", replacement.status());
      live_.push_back(*replacement);
      ++total_replaces;
    }

    // New arrivals.
    for (std::size_t a = 0; a < rates_.adds; ++a) {
      auto id = db_->AddPending(
          ChurnTxn(next_txid_++, cycle_pks_[(total_adds + a) % 4]));
      if (!id.ok()) Die("add", id.status());
      live_.push_back(*id);
    }
    total_adds += rates_.adds;
  }

  std::size_t total_adds = 0, total_confirms = 0, total_evicts = 0;
  std::size_t total_replaces = 0, total_reorgs = 0, total_restored = 0;

 private:
  static void Die(const char* what, const Status& status) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }

  BlockchainDatabase* db_;
  LifecycleRates rates_;
  std::string cycle_pks_[4];
  std::deque<PendingId> live_;
  std::int64_t next_txid_ = 20'000'000;
  std::vector<PendingId> last_block_;  // most recent confirmations
  Tuple last_coinbase_;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = ApplySmokeFlag(&argc, argv);

  // Mainnet-shaped ratios, scaled to the dataset: arrivals roughly double
  // confirmations, evictions/replacements trail well behind arrivals, and a
  // shallow reorg interrupts every few blocks.
  LifecycleRates rates;
  if (smoke) {
    rates = {/*intervals=*/6, /*adds=*/8,     /*confirms=*/4,
             /*evicts=*/2,    /*replaces=*/1, /*reorg_every=*/3};
  } else {
    rates = {/*intervals=*/48, /*adds=*/24,    /*confirms=*/12,
             /*evicts=*/6,     /*replaces=*/3, /*reorg_every=*/6};
  }

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
    LifecycleSchedule schedule(&db, rates, data->metadata);
    schedule.Seed();

    // Warm the engine and monitor (the first poll evaluates everything)
    // and the indexes.
    (void)CheckOrDie(incremental_engine, q, options);
    if (!incremental_monitor.Poll(options).ok()) {
      std::fprintf(stderr, "warm-up poll failed\n");
      return 1;
    }
    for (std::size_t interval = 0; interval < rates.intervals; ++interval) {
      schedule.RunInterval(interval);
      Stopwatch inc_watch;
      const DcSatResult inc = CheckOrDie(incremental_engine, q, options);
      check_incremental.push_back(inc_watch.ElapsedSeconds());
      verdicts.push_back(inc.satisfied);

      Stopwatch inc_poll_watch;
      if (!incremental_monitor.Poll(options).ok()) return 1;
      poll_incremental.push_back(inc_poll_watch.ElapsedSeconds());
    }

    const SteadyStateStats& stats = incremental_engine.steady_state_stats();
    std::fprintf(stderr,
                 "[lifecycle] %zu intervals: %zu adds, %zu confirms, %zu "
                 "evictions, %zu replacements, %zu reorgs (%zu restored); "
                 "engine: %zu incremental batches (%zu events), %zu full "
                 "rebuilds, %zu base-insert fallbacks\n",
                 rates.intervals, schedule.total_adds, schedule.total_confirms,
                 schedule.total_evicts, schedule.total_replaces,
                 schedule.total_reorgs, schedule.total_restored,
                 stats.incremental_batches, stats.incremental_events,
                 stats.full_rebuilds, stats.fallbacks_base_insert);
    if (schedule.total_reorgs == 0) {
      std::fprintf(stderr, "FAIL: churn schedule never exercised a reorg\n");
      return 1;
    }
    if (stats.incremental_batches == 0) {
      std::fprintf(stderr, "incremental engine never took the delta path\n");
      return 1;
    }
    // The tentpole claim: base inserts/removals and reorg restorations are
    // patched into the steady-state caches, never punted to a rebuild.
    if (stats.fallbacks_base_insert != 0) {
      std::fprintf(stderr,
                   "FAIL: %zu base-state events fell back to a full rebuild\n",
                   stats.fallbacks_base_insert);
      return 1;
    }
  }

  // Pass 2, the full-rebuild baselines: the same schedule over an
  // identically prepared copy of the dataset, with a fresh engine and a
  // fresh monitor per interval (registration untimed). It is a separate
  // pass because building them between the maintained measurements pushed
  // the maintained structures out of cache and slowed those by 10-50%.
  std::vector<double> check_full, poll_full;
  {
    auto data = Prepare(spec);
    BlockchainDatabase& db = *data->db;
    const DenialConstraint q = SimpleSat(data->metadata);
    LifecycleSchedule schedule(&db, rates, data->metadata);
    schedule.Seed();
    (void)CheckOrDie(*data->engine, q, options);  // Builds the indexes.
    for (std::size_t interval = 0; interval < rates.intervals; ++interval) {
      schedule.RunInterval(interval);
      {
        // Only the check is timed: the compile cache is warmed first, so
        // the check pays for the full build alone.
        DcSatEngine full_engine(&db);
        if (!full_engine.GetOrCompile(q).ok()) return 1;
        Stopwatch full_watch;
        const DcSatResult full = CheckOrDie(full_engine, q, options);
        check_full.push_back(full_watch.ElapsedSeconds());
        if (full.satisfied != verdicts[interval]) {
          std::fprintf(stderr,
                       "interval %zu: incremental/full verdicts diverge\n",
                       interval);
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

  WriteBenchJson("BENCH_mempool_lifecycle.json", rows);

  // Smoke runs (tiny dataset, sanitizer CI) only require the delta path to
  // win; the full configuration must beat the rebuild decisively.
  const double required = smoke ? 1.0 : 5.0;
  const double achieved =
      Median(check_incremental) > 0
          ? check_full_median / Median(check_incremental)
          : required;
  if (achieved < required) {
    std::fprintf(stderr,
                 "FAIL: incremental check only %.2fx faster than full "
                 "rebuild (need >= %.1fx)\n",
                 achieved, required);
    return 1;
  }
  return 0;
}
