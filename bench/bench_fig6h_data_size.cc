// Figure 6h: execution time of qp3 (unsatisfied) across the three datasets
// S100 / S200 / S300, each with roughly 3000 pending transactions (the
// paper fixes pending at ~3000 for this sweep). Expected shape: runtime
// grows only moderately with |R| — the current state is index-probed, not
// scanned — and OptDCSat stays well below NaiveDCSat.

// Results are also written as google-benchmark JSON to
// BENCH_fig6h_data_size.json for machine-readable perf tracking.

#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace bcdb;
  using namespace bcdb::bench;
  using namespace bcdb::workload;

  std::vector<std::unique_ptr<PreparedDataset>> datasets;
  for (const DatasetSpec& base : AllDatasets()) {
    // "Each dataset contains approximately 3000 pending transactions."
    datasets.push_back(Prepare(WithPendingTotal(base, 3000)));
    PreparedDataset* data = datasets.back().get();
    const std::string suffix = "/data:" + base.name;
    RegisterDcSat("Fig6h/qp3/Naive" + suffix, data->engine.get(),
                  PathUnsat(data->metadata, 3), NaiveOptions());
    RegisterDcSat("Fig6h/qp3/Opt" + suffix, data->engine.get(),
                  PathUnsat(data->metadata, 3), OptOptions());
  }

  std::vector<char*> args =
      WithDefaultJsonOut(&argc, argv, "BENCH_fig6h_data_size.json");
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
