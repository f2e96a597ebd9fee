// Microbenchmarks of the substrate operations the DCSat runtimes decompose
// into: steady-state graph construction, component grouping, maximal-world
// materialization, query evaluation, possible-world recognition, the storage
// substrate (value interning, id hashing, projection-key index probes), and
// the hashing primitive.
//
// Pass --smoke (or BCDB_BENCH_SMOKE=1) for a seconds-scale CI run. Results
// are also written as google-benchmark JSON to BENCH_micro_substrate.json.

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bitcoin/block_file.h"
#include "core/probability.h"
#include "bitcoin/sha256.h"
#include "core/fd_graph.h"
#include "core/get_maximal.h"
#include "core/ind_graph.h"
#include "core/bron_kerbosch.h"
#include "core/possible_worlds.h"
#include "query/compiled_query.h"
#include "relational/tuple.h"
#include "relational/value_pool.h"

namespace {

std::unique_ptr<bcdb::bench::PreparedDataset> g_data;

/// The relation the storage microbenches walk (txIn of the bitcoin image)
/// and how many of its tuples they touch per iteration.
const bcdb::Relation& SubstrateRelation() {
  return g_data->db->database().relation(0);
}

std::size_t SubstrateTupleCount() {
  return std::min<std::size_t>(SubstrateRelation().num_tuples(), 4096);
}

void BM_FdGraphBuild(benchmark::State& state) {
  for (auto _ : state) {
    bcdb::FdGraph graph(*g_data->db);
    benchmark::DoNotOptimize(graph.num_conflict_pairs());
  }
}

void BM_ThetaIComponents(benchmark::State& state) {
  const bcdb::FdGraph graph(*g_data->db);
  const auto equalities =
      bcdb::EqualitiesFromConstraints(g_data->db->constraints());
  for (auto _ : state) {
    bcdb::UnionFind uf(g_data->db->num_pending());
    bcdb::MergeEqualityComponents(*g_data->db, equalities,
                                  graph.valid_nodes(), uf);
    benchmark::DoNotOptimize(uf.num_elements());
  }
}

void BM_GetMaximalAllPending(benchmark::State& state) {
  const std::vector<bcdb::PendingId> pending = g_data->db->PendingIds();
  for (auto _ : state) {
    bcdb::WorldView world = bcdb::GetMaximal(*g_data->db, pending);
    benchmark::DoNotOptimize(world.NumActive());
  }
}

void BM_FirstMaximalClique(benchmark::State& state) {
  const bcdb::FdGraph graph(*g_data->db);
  for (auto _ : state) {
    std::size_t size = 0;
    bcdb::EnumerateMaximalCliques(graph.conflict_lists(), graph.valid_nodes(),
                                  /*use_pivot=*/true,
                                  [&](const std::vector<std::size_t>& clique) {
                                    size = clique.size();
                                    return false;  // First clique only.
                                  });
    benchmark::DoNotOptimize(size);
  }
}

void BM_QueryEvalOverFullView(benchmark::State& state) {
  const bcdb::DenialConstraint qp3 =
      bcdb::workload::PathUnsat(g_data->metadata, 3);
  auto compiled =
      bcdb::CompiledQuery::Compile(qp3, &g_data->db->database());
  const bcdb::WorldView view = g_data->db->PendingUnionView();
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled->Evaluate(view));
  }
}

void BM_IsPossibleWorldAllPending(benchmark::State& state) {
  const std::vector<bcdb::PendingId> pending = g_data->db->PendingIds();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bcdb::IsPossibleWorld(*g_data->db, pending));
  }
}

void BM_SampleWorld(benchmark::State& state) {
  bcdb::InclusionModel model;
  model.default_probability = 0.5;
  bcdb::Xoshiro256 rng(17);
  for (auto _ : state) {
    const bcdb::WorldView world = bcdb::SampleWorld(*g_data->db, model, rng);
    benchmark::DoNotOptimize(world.NumActive());
  }
}

void BM_EncodeNodeBlocks(benchmark::State& state) {
  // Encode every block of the default workload's chain as a block-file
  // payload: the per-block cost of persisting a node (ExportNode).
  auto workload =
      bcdb::bitcoin::GenerateWorkload(bcdb::workload::S100().params);
  if (!workload.ok()) state.SkipWithError("generation failed");
  for (auto _ : state) {
    std::size_t bytes = 0;
    for (const bcdb::bitcoin::Block& block : workload->node.chain().blocks()) {
      bytes += bcdb::bitcoin::EncodeBlockPayload(block).size();
    }
    benchmark::DoNotOptimize(bytes);
  }
}

void BM_ValueInternHit(benchmark::State& state) {
  // Re-interning values that are already pooled: the steady-state ingest
  // cost per value (hash + one probe of the intern table).
  std::vector<bcdb::Value> values;
  const bcdb::Relation& rel = SubstrateRelation();
  const std::size_t n = std::min<std::size_t>(rel.num_tuples(), 512);
  for (std::size_t i = 0; i < n; ++i) {
    for (bcdb::Value& v : rel.tuple(i).values()) values.push_back(std::move(v));
  }
  bcdb::ValuePool& pool = bcdb::ValuePool::Global();
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const bcdb::Value& v : values) acc += pool.Intern(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}

void BM_TupleInternConstruct(benchmark::State& state) {
  // Full ingest path: materialize values, then build (re-intern) a tuple.
  const bcdb::Relation& rel = SubstrateRelation();
  std::vector<std::vector<bcdb::Value>> rows;
  const std::size_t n = std::min<std::size_t>(rel.num_tuples(), 512);
  for (std::size_t i = 0; i < n; ++i) rows.push_back(rel.tuple(i).values());
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const std::vector<bcdb::Value>& row : rows) {
      acc ^= bcdb::Tuple(row).Hash();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}

void BM_TupleHashIds(benchmark::State& state) {
  // Hashing a stored tuple: a length-seeded mix over raw 32-bit ids — no
  // variant dispatch, no string walks.
  const bcdb::Relation& rel = SubstrateRelation();
  const std::size_t n = SubstrateTupleCount();
  for (auto _ : state) {
    std::size_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) acc ^= rel.tuple(i).Hash();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_ProjectionKeyGather(benchmark::State& state) {
  // Building an index lookup key from a stored tuple: an id gather into an
  // inline buffer, no heap traffic.
  const bcdb::Relation& rel = SubstrateRelation();
  const std::vector<std::size_t> positions{0, 1};
  const std::size_t n = SubstrateTupleCount();
  for (auto _ : state) {
    std::size_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc ^= rel.tuple(i).ProjectKey(positions).Hash();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_IndexProbeProjectionKey(benchmark::State& state) {
  // End-to-end index probe: gather key, heterogeneous bucket lookup.
  const bcdb::Relation& rel = SubstrateRelation();
  const std::vector<std::size_t> positions{0, 1};
  const std::size_t index_id = rel.GetOrBuildIndex(positions);
  const std::size_t n = SubstrateTupleCount();
  for (auto _ : state) {
    std::size_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += rel.IndexLookup(index_id, rel.tuple(i).ProjectKey(positions))
                 .size();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// ---------------------------------------------------------------------------
// Hash-map shootout: std::unordered_map vs the engine's flat open-addressing
// table vs a minimal robin-hood reference, over key distributions lifted from
// the workload itself (dense tuple ids, projection keys of the txIn relation
// with their real fan-in/skew). All backends share the engine's hash/equality
// functors so only table mechanics differ.

/// Reference robin-hood map: linear probing, power-of-two capacity, probe
/// distances stored per slot, displacement on insert ("steal from the
/// rich"), 7/8 max load. Deliberately minimal — just enough surface for the
/// shootout (reserve / operator[] / count / clear / size) with heterogeneous
/// probes through transparent functors.
template <typename Key, typename Value, typename HashFn = std::hash<Key>,
          typename EqFn = std::equal_to<Key>>
class RobinHoodRef {
 public:
  RobinHoodRef() = default;

  std::size_t size() const { return size_; }

  void reserve(std::size_t n) {
    std::size_t cap = 16;
    while (cap * 7 < n * 8) cap *= 2;
    if (cap > capacity_) Rehash(cap);
  }

  void clear() {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (dist_[i] != 0) slots_[i] = {};
    }
    std::fill(dist_.begin(), dist_.end(), std::uint8_t{0});
    size_ = 0;
  }

  Value& operator[](const Key& key) {
    if (capacity_ == 0 || (size_ + 1) * 8 > capacity_ * 7) {
      Rehash(capacity_ == 0 ? 16 : capacity_ * 2);
    }
    return Insert(Key(key));
  }

  template <typename K2>
  std::size_t count(const K2& key) const {
    if (capacity_ == 0) return 0;
    std::size_t i = HashFn{}(key) & mask_;
    std::uint8_t d = 1;
    while (true) {
      const std::uint8_t sd = dist_[i];
      if (sd < d) return 0;  // Robin-hood invariant: key would sit here.
      if (sd == d && EqFn{}(slots_[i].first, key)) return 1;
      i = (i + 1) & mask_;
      ++d;
    }
  }

 private:
  Value& Insert(Key key) {
    std::size_t i = HashFn{}(key) & mask_;
    std::uint8_t d = 1;
    while (true) {
      std::uint8_t& sd = dist_[i];
      if (sd == 0) {
        slots_[i] = {std::move(key), Value{}};
        sd = d;
        ++size_;
        return slots_[i].second;
      }
      if (sd == d && EqFn{}(slots_[i].first, key)) return slots_[i].second;
      if (sd < d) {
        // Displace the richer resident and keep walking with its entry;
        // our key stays put at slot i.
        std::pair<Key, Value> displaced = std::move(slots_[i]);
        const std::uint8_t displaced_d = sd;
        slots_[i] = {std::move(key), Value{}};
        sd = d;
        ++size_;
        CascadeDisplaced(std::move(displaced), displaced_d, i);
        return slots_[i].second;
      }
      i = (i + 1) & mask_;
      ++d;
    }
  }

  void CascadeDisplaced(std::pair<Key, Value> entry, std::uint8_t d,
                        std::size_t i) {
    while (true) {
      i = (i + 1) & mask_;
      ++d;
      std::uint8_t& sd = dist_[i];
      if (sd == 0) {
        slots_[i] = std::move(entry);
        sd = d;
        return;
      }
      if (sd < d) {
        std::swap(entry, slots_[i]);
        std::swap(d, sd);
      }
    }
  }

  void Rehash(std::size_t new_capacity) {
    std::vector<std::pair<Key, Value>> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_dist = std::move(dist_);
    slots_.assign(new_capacity, {});
    dist_.assign(new_capacity, 0);
    capacity_ = new_capacity;
    mask_ = new_capacity - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_dist.size(); ++i) {
      if (old_dist[i] != 0) {
        Insert(std::move(old_slots[i].first)) =
            std::move(old_slots[i].second);
      }
    }
  }

  std::vector<std::pair<Key, Value>> slots_;
  std::vector<std::uint8_t> dist_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Dense tuple-id key stream — the distribution behind owner tables,
/// footprints, and every id-keyed side structure.
std::size_t ShootoutIdCount() {
  return std::min<std::size_t>(SubstrateRelation().num_tuples(), 65536);
}

/// Projection keys of the txIn relation with their natural duplicate fan-in —
/// the distribution behind index buckets, FD buckets, and Θ buckets.
const std::vector<bcdb::Tuple>& ShootoutProjKeys() {
  static const std::vector<bcdb::Tuple>* keys = [] {
    auto* out = new std::vector<bcdb::Tuple>;
    const bcdb::Relation& rel = SubstrateRelation();
    const std::vector<std::size_t> positions{0, 1};
    const std::size_t n = ShootoutIdCount();
    out->reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out->push_back(rel.tuple(i).Project(positions));
    }
    return out;
  }();
  return *keys;
}

/// Insert dense sequential ids with no pre-sizing: growth path included, the
/// worst case for an unmixed power-of-two table.
template <typename MapT>
void ShootoutDenseIdInsert(benchmark::State& state) {
  const std::size_t n = ShootoutIdCount();
  for (auto _ : state) {
    MapT map;
    for (std::size_t i = 0; i < n; ++i) ++map[i];
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

/// Group-by over real projection keys (reserve known): the FD/Θ bucket
/// build.
template <typename MapT>
void ShootoutProjKeyFanIn(benchmark::State& state) {
  const std::vector<bcdb::Tuple>& keys = ShootoutProjKeys();
  for (auto _ : state) {
    MapT map;
    map.reserve(keys.size());
    for (const bcdb::Tuple& key : keys) ++map[key];
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}

/// Read-only probes of a built table via heterogeneous ProjectionKey views —
/// the per-candidate index probe of query evaluation.
template <typename MapT>
void ShootoutProjKeyProbeHit(benchmark::State& state) {
  const bcdb::Relation& rel = SubstrateRelation();
  const std::vector<std::size_t> positions{0, 1};
  const std::vector<bcdb::Tuple>& keys = ShootoutProjKeys();
  MapT map;
  map.reserve(keys.size());
  for (const bcdb::Tuple& key : keys) ++map[key];
  const std::size_t n = ShootoutIdCount();
  for (auto _ : state) {
    std::size_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += map.count(rel.tuple(i).ProjectKey(positions));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

/// Fill-then-clear cycles over one arena — the distinct/seen-set churn of
/// answer enumeration.
template <typename MapT>
void ShootoutDistinctChurn(benchmark::State& state) {
  const std::vector<bcdb::Tuple>& keys = ShootoutProjKeys();
  MapT map;
  map.reserve(keys.size());
  for (auto _ : state) {
    map.clear();
    for (const bcdb::Tuple& key : keys) ++map[key];
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}

using StdIdMap =
    std::unordered_map<std::size_t, std::uint32_t, bcdb::IdHash>;
using FlatIdShootoutMap =
    bcdb::FlatHashMap<std::size_t, std::uint32_t, bcdb::IdHash>;
using RobinIdMap =
    RobinHoodRef<std::size_t, std::uint32_t, bcdb::IdHash>;
using StdTupleMap = std::unordered_map<bcdb::Tuple, std::uint32_t,
                                       bcdb::TupleHash, bcdb::TupleEq>;
using FlatTupleMap = bcdb::FlatHashMap<bcdb::Tuple, std::uint32_t,
                                       bcdb::TupleHash, bcdb::TupleEq>;
using RobinTupleMap = RobinHoodRef<bcdb::Tuple, std::uint32_t,
                                   bcdb::TupleHash, bcdb::TupleEq>;

void RegisterShootout() {
  benchmark::RegisterBenchmark("Shootout/DenseIdInsert/std",
                               ShootoutDenseIdInsert<StdIdMap>)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Shootout/DenseIdInsert/flat",
                               ShootoutDenseIdInsert<FlatIdShootoutMap>)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Shootout/DenseIdInsert/robinhood",
                               ShootoutDenseIdInsert<RobinIdMap>)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Shootout/ProjKeyFanIn/std",
                               ShootoutProjKeyFanIn<StdTupleMap>)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Shootout/ProjKeyFanIn/flat",
                               ShootoutProjKeyFanIn<FlatTupleMap>)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Shootout/ProjKeyFanIn/robinhood",
                               ShootoutProjKeyFanIn<RobinTupleMap>)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Shootout/ProjKeyProbeHit/std",
                               ShootoutProjKeyProbeHit<StdTupleMap>)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Shootout/ProjKeyProbeHit/flat",
                               ShootoutProjKeyProbeHit<FlatTupleMap>)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Shootout/ProjKeyProbeHit/robinhood",
                               ShootoutProjKeyProbeHit<RobinTupleMap>)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Shootout/DistinctChurn/std",
                               ShootoutDistinctChurn<StdTupleMap>)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Shootout/DistinctChurn/flat",
                               ShootoutDistinctChurn<FlatTupleMap>)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Shootout/DistinctChurn/robinhood",
                               ShootoutDistinctChurn<RobinTupleMap>)
      ->Unit(benchmark::kMicrosecond);
}

void BM_Sha256_1KiB(benchmark::State& state) {
  const std::string data(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(bcdb::Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bcdb::bench::ApplySmokeFlag(&argc, argv);
  g_data = bcdb::bench::Prepare(
      smoke
          ? bcdb::workload::WithPendingTotal(bcdb::workload::DefaultDataset(),
                                             600)
          : bcdb::workload::DefaultDataset());

  benchmark::RegisterBenchmark("Micro/FdGraphBuild", BM_FdGraphBuild)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Micro/ThetaIComponents", BM_ThetaIComponents)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Micro/GetMaximalAllPending",
                               BM_GetMaximalAllPending)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Micro/FirstMaximalClique",
                               BM_FirstMaximalClique)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Micro/QueryEvalOverFullView",
                               BM_QueryEvalOverFullView)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Micro/IsPossibleWorldAllPending",
                               BM_IsPossibleWorldAllPending)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Micro/SampleWorld", BM_SampleWorld)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Micro/EncodeNodeBlocks", BM_EncodeNodeBlocks)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Micro/ValueInternHit", BM_ValueInternHit)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Micro/TupleInternConstruct",
                               BM_TupleInternConstruct)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Micro/TupleHashIds", BM_TupleHashIds)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Micro/ProjectionKeyGather",
                               BM_ProjectionKeyGather)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Micro/IndexProbeProjectionKey",
                               BM_IndexProbeProjectionKey)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Micro/Sha256_1KiB", BM_Sha256_1KiB);
  RegisterShootout();

  // Default the machine-readable output next to the binary; explicit
  // --benchmark_out flags on the command line still win (parsed later).
  std::vector<char*> args = bcdb::bench::WithDefaultJsonOut(
      &argc, argv, "BENCH_micro_substrate.json");
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  g_data.reset();
  return 0;
}
