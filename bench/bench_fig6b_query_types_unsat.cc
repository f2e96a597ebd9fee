// Figure 6b: execution time per query type, *unsatisfied* denial
// constraints (the underlying query is true in some possible world, so the
// full clique search runs until a violating world is found). Expected
// shape: orders of magnitude slower than Figure 6a; OptDCSat usually beats
// NaiveDCSat because components confine the worlds it materializes — with
// the paper's noted caveat that the trend can reverse (e.g. qr3) when
// Naive's larger worlds happen to satisfy the query sooner.
//
// The Naive and Opt rows repeat one check at one version (warm); the
// NaiveCold rows make an untimed version bump before each check, so each
// one refreshes the steady-state caches and starts with an empty
// appendability-to-R status.
//
// Pass --smoke (or BCDB_BENCH_SMOKE=1) to run the same rows on a small set
// (S100, 300 pending), a seconds-scale run for CI.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace bcdb;
  using namespace bcdb::bench;
  using namespace bcdb::workload;

  const bool smoke = ApplySmokeFlag(&argc, argv);

  DatasetSpec spec = DefaultDataset();
  if (smoke) {
    spec = WithPendingTotal(S100(), 300);
    spec.params.num_contradictions = 6;
    spec.name = "S100-small";
  }
  auto data = Prepare(spec);
  DcSatEngine* engine = data->engine.get();
  const bitcoin::WorkloadMetadata& meta = data->metadata;

  RegisterDcSat("Fig6b/qs/Naive", engine, SimpleUnsat(meta), NaiveOptions());
  RegisterDcSat("Fig6b/qs/Opt", engine, SimpleUnsat(meta), OptOptions());
  RegisterDcSat("Fig6b/qp3/Naive", engine, PathUnsat(meta, 3),
                NaiveOptions());
  RegisterDcSat("Fig6b/qp3/Opt", engine, PathUnsat(meta, 3), OptOptions());
  RegisterDcSatCold("Fig6b/qp3/NaiveCold", data.get(), PathUnsat(meta, 3),
                    NaiveOptions());
  RegisterDcSat("Fig6b/qr3/Naive", engine, StarUnsat(meta, 3),
                NaiveOptions());
  RegisterDcSat("Fig6b/qr3/Opt", engine, StarUnsat(meta, 3), OptOptions());
  RegisterDcSat("Fig6b/qa/Naive", engine, AggregateUnsat(meta),
                NaiveOptions());
  RegisterDcSatCold("Fig6b/qa/NaiveCold", data.get(), AggregateUnsat(meta),
                    NaiveOptions());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
