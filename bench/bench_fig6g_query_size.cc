// Figure 6g: execution time of unsatisfied path constraints qp2..qp5 as the
// query grows. Expected shape: runtime rises only slightly with query size
// — query evaluation is a small share of the total; graph construction and
// world materialization dominate.
//
// The Opt rows repeat one check at one version, so they read the component
// partition from the decomposition memo (warm); the OptCold rows make an
// untimed version bump before each check, so each one decomposes afresh.
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

  for (std::size_t i : {2u, 3u, 4u, 5u}) {
    const std::string suffix = "/size:" + std::to_string(i);
    RegisterDcSat("Fig6g/qp/Naive" + suffix, engine, PathUnsat(meta, i),
                  NaiveOptions());
    RegisterDcSat("Fig6g/qp/Opt" + suffix, engine, PathUnsat(meta, i),
                  OptOptions());
    RegisterDcSatCold("Fig6g/qp/OptCold" + suffix, data.get(),
                      PathUnsat(meta, i), OptOptions());
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
