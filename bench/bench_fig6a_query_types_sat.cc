// Figure 6a: execution time per query type, *satisfied* denial constraints
// (constants chosen so the underlying query is false in every possible
// world). Expected shape: all runs complete in milliseconds because the
// monotone pre-check over R ∪ T settles the answer.
//
// Query types: qs (simple), qp3 (path of 3), qr3 (star of 3), qa (sum
// aggregate). OptDCSat is run for the connected types; qa is not connected,
// so only NaiveDCSat applies (paper Section 7).

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace bcdb;
  using namespace bcdb::bench;
  using namespace bcdb::workload;

  auto data = Prepare(DefaultDataset());
  DcSatEngine* engine = data->engine.get();
  const bitcoin::WorkloadMetadata& meta = data->metadata;

  RegisterDcSat("Fig6a/qs/Naive", engine, SimpleSat(meta), NaiveOptions());
  RegisterDcSat("Fig6a/qs/Opt", engine, SimpleSat(meta), OptOptions());
  RegisterDcSat("Fig6a/qp3/Naive", engine, PathSat(meta, 3), NaiveOptions());
  RegisterDcSat("Fig6a/qp3/Opt", engine, PathSat(meta, 3), OptOptions());
  RegisterDcSat("Fig6a/qr3/Naive", engine, StarSat(meta, 3), NaiveOptions());
  RegisterDcSat("Fig6a/qr3/Opt", engine, StarSat(meta, 3), OptOptions());
  RegisterDcSat("Fig6a/qa/Naive", engine, AggregateSat(meta), NaiveOptions());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
