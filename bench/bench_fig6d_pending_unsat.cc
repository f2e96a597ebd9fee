// Figure 6d: execution time of qp3 (unsatisfied) as the number of pending
// transactions grows (1150 .. 7382). Expected shape: runtime grows with
// |T| (graph construction + clique search dominate) and OptDCSat stays
// consistently below NaiveDCSat.

#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace bcdb;
  using namespace bcdb::bench;
  using namespace bcdb::workload;

  const std::size_t kPendingCounts[] = {1150, 2764, 3753, 5079, 7382};
  std::vector<std::unique_ptr<PreparedDataset>> datasets;
  for (std::size_t pending : kPendingCounts) {
    datasets.push_back(Prepare(WithPendingTotal(DefaultDataset(), pending)));
    PreparedDataset* data = datasets.back().get();
    const std::string suffix = "/pending:" + std::to_string(pending);
    RegisterDcSat("Fig6d/qp3/Naive" + suffix, data->engine.get(),
                  PathUnsat(data->metadata, 3), NaiveOptions());
    RegisterDcSat("Fig6d/qp3/Opt" + suffix, data->engine.get(),
                  PathUnsat(data->metadata, 3), OptOptions());
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
