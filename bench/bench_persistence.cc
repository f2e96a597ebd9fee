// Durable-store cost model: write amplification of the WAL + checkpoint
// pipeline under each sync policy, and wall-clock recovery time from (a) a
// pure WAL replay and (b) a checkpoint plus WAL suffix.
//
// Phases per sync policy (kNone / kGroup / kEveryRecord):
//   ingest      stream the generated dataset through the DurabilitySink
//   churn       mempool add/discard cycles growing the WAL
//   recover_wal reopen + full recovery with no checkpoint on disk
//   checkpoint  write a snapshot segment, bounding future replay
//   recover_ckp reopen + recovery from the checkpoint + WAL suffix
//
// Standalone timer (no google-benchmark): emits a human table on stderr
// and the machine-readable BENCH_persistence.json. Pass --smoke (or
// BCDB_BENCH_SMOKE=1) for a seconds-scale CI run. Scratch state lives in
// ./bench_persistence_scratch and is removed on exit.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "storage/durable_store.h"

namespace {

using namespace bcdb;
using namespace bcdb::bench;
using bcdb::storage::DurableStore;
using bcdb::storage::DurableStoreOptions;
using bcdb::storage::DurableStoreStats;
using bcdb::storage::SyncPolicy;

struct Row {
  std::string phase;
  std::string sync;
  double seconds = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t segment_bytes = 0;
  double write_amp = 0;
  std::uint64_t recovered_snapshot_tuples = 0;
  std::uint64_t recovered_wal_records = 0;
};

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "  {\"phase\": \"%s\", \"sync\": \"%s\", \"seconds\": %.6f, "
        "\"wal_records\": %llu, \"wal_bytes\": %llu, "
        "\"segment_bytes\": %llu, \"write_amp\": %.3f, "
        "\"recovered_snapshot_tuples\": %llu, "
        "\"recovered_wal_records\": %llu}%s\n",
        r.phase.c_str(), r.sync.c_str(), r.seconds,
        static_cast<unsigned long long>(r.wal_records),
        static_cast<unsigned long long>(r.wal_bytes),
        static_cast<unsigned long long>(r.segment_bytes), r.write_amp,
        static_cast<unsigned long long>(r.recovered_snapshot_tuples),
        static_cast<unsigned long long>(r.recovered_wal_records),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "[json] wrote %zu rows to %s\n", rows.size(),
               path.c_str());
}

Row Snapshot(const std::string& phase, const std::string& sync,
             double seconds, const DurableStoreStats& stats) {
  Row row;
  row.phase = phase;
  row.sync = sync;
  row.seconds = seconds;
  row.wal_records = stats.wal_records;
  row.wal_bytes = stats.wal_bytes;
  row.segment_bytes = stats.segment_bytes;
  row.write_amp = stats.WriteAmplification();
  row.recovered_snapshot_tuples = stats.recovered_snapshot_tuples;
  row.recovered_wal_records = stats.recovered_wal_records;
  return row;
}

void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::abort();
}

std::unique_ptr<DurableStore> OpenOrDie(const std::string& dir,
                                        SyncPolicy policy) {
  DurableStoreOptions options;
  options.sync = policy;
  auto store = DurableStore::Open(dir, bitcoin::MakeBitcoinCatalog(),
                                  options);
  if (!store.ok()) Die("open", store.status());
  return std::move(*store);
}

/// Reopens `dir` and runs full recovery, returning the recovered database
/// and the freshly-positioned store.
std::pair<std::unique_ptr<DurableStore>, BlockchainDatabase> RecoverOrDie(
    const std::string& dir, SyncPolicy policy) {
  std::unique_ptr<DurableStore> store = OpenOrDie(dir, policy);
  auto constraints = bitcoin::MakeBitcoinConstraints(store->catalog());
  if (!constraints.ok()) Die("constraints", constraints.status());
  auto db = store->Recover(std::move(*constraints));
  if (!db.ok()) Die("recover", db.status());
  return {std::move(store), std::move(*db)};
}

/// One mempool cycle: a fresh pending transaction enters, the previous
/// churn transaction leaves. Every step appends two WAL records.
void Churn(BlockchainDatabase& db, std::size_t steps) {
  PendingId previous = kNoPendingId;
  for (std::size_t step = 0; step < steps; ++step) {
    Transaction incoming("persist-churn-" + std::to_string(step));
    incoming.Add(
        bitcoin::kTxOut,
        Tuple({Value::Int(static_cast<std::int64_t>(20'000'000 + step)),
               Value::Int(0), Value::Str("PersistPk"), Value::Int(1)}));
    auto id = db.AddPending(incoming);
    if (!id.ok()) Die("churn add", id.status());
    if (previous != kNoPendingId && !db.DiscardPending(previous).ok()) {
      std::abort();
    }
    previous = *id;
  }
}

const char* PolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kNone:
      return "none";
    case SyncPolicy::kGroup:
      return "group";
    case SyncPolicy::kEveryRecord:
      return "every_record";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = ApplySmokeFlag(&argc, argv);
  const std::size_t churn_steps = smoke ? 40 : 2000;

  bitcoin::GeneratorParams params;
  if (smoke) {
    params.seed = 7;
    params.num_blocks = 6;
    params.num_users = 6;
    params.num_pending = 8;
    params.num_contradictions = 1;
    params.pending_chain_depth = 2;
    params.star_size = 2;
    params.rich_payments = 2;
  } else {
    params = workload::DefaultDataset().params;
  }
  auto workload = bitcoin::GenerateWorkload(params);
  if (!workload.ok()) Die("generate", workload.status());
  const bitcoin::SimulatedNode& node = workload->node;

  const std::filesystem::path scratch = "bench_persistence_scratch";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  std::vector<Row> rows;
  for (SyncPolicy policy :
       {SyncPolicy::kNone, SyncPolicy::kGroup, SyncPolicy::kEveryRecord}) {
    const std::string name = PolicyName(policy);
    const std::string dir = (scratch / name).string();

    // Ingest: stream the dataset's relational image through the sink.
    std::unique_ptr<DurableStore> store = OpenOrDie(dir, policy);
    {
      auto bootstrap = store->Recover(ConstraintSet{});
      if (!bootstrap.ok()) Die("bootstrap", bootstrap.status());
    }
    Stopwatch ingest_watch;
    auto db = bitcoin::BuildBlockchainDatabase(node, store.get());
    if (!db.ok()) Die("ingest", db.status());
    if (!store->Sync().ok() || !store->status().ok()) {
      Die("sync", store->status());
    }
    rows.push_back(Snapshot("ingest", name, ingest_watch.ElapsedSeconds(),
                            store->stats()));

    // Churn: add/discard cycles growing the WAL past the snapshot.
    Stopwatch churn_watch;
    Churn(*db, churn_steps);
    if (!store->Sync().ok()) Die("sync", store->status());
    rows.push_back(Snapshot("churn", name, churn_watch.ElapsedSeconds(),
                            store->stats()));
    store.reset();

    // Recovery with nothing but the WAL on disk.
    Stopwatch wal_watch;
    auto [recovered_store, recovered] = RecoverOrDie(dir, policy);
    rows.push_back(Snapshot("recover_wal", name, wal_watch.ElapsedSeconds(),
                            recovered_store->stats()));

    // Checkpoint bounds replay: snapshot, more churn, recover again.
    Stopwatch checkpoint_watch;
    if (!recovered_store->Checkpoint(recovered).ok()) {
      Die("checkpoint", recovered_store->status());
    }
    rows.push_back(Snapshot("checkpoint", name,
                            checkpoint_watch.ElapsedSeconds(),
                            recovered_store->stats()));
    recovered.AttachDurabilitySink(recovered_store.get());
    Churn(recovered, churn_steps / 4);
    if (!recovered_store->Sync().ok()) Die("sync", recovered_store->status());
    recovered_store.reset();

    Stopwatch ckp_watch;
    auto [final_store, final_db] = RecoverOrDie(dir, policy);
    rows.push_back(Snapshot("recover_ckp", name, ckp_watch.ElapsedSeconds(),
                            final_store->stats()));
    std::fprintf(stderr,
                 "[%s] ingest %.3fs, churn %.3fs, recover(wal) %.3fs, "
                 "recover(ckp) %.3fs, write_amp %.2f\n",
                 name.c_str(), rows[rows.size() - 5].seconds,
                 rows[rows.size() - 4].seconds, rows[rows.size() - 3].seconds,
                 rows[rows.size() - 1].seconds,
                 rows[rows.size() - 4].write_amp);
    if (final_db.version() != recovered.version()) {
      std::fprintf(stderr, "recovery version mismatch\n");
      return 1;
    }
  }

  WriteJson("BENCH_persistence.json", rows);
  std::filesystem::remove_all(scratch);
  return 0;
}
