// Figure 6e: execution time of qp3 (satisfied) as the number of injected
// functional-dependency contradictions (double spends among the pending
// transactions) varies over 10..50. Expected shape: flat and fast — the
// pre-check decides satisfied constraints regardless of conflicts.

#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace bcdb;
  using namespace bcdb::bench;
  using namespace bcdb::workload;

  std::vector<std::unique_ptr<PreparedDataset>> datasets;
  for (std::size_t contradictions : {10u, 20u, 30u, 40u, 50u}) {
    datasets.push_back(
        Prepare(WithContradictions(DefaultDataset(), contradictions)));
    PreparedDataset* data = datasets.back().get();
    const std::string suffix =
        "/contradictions:" + std::to_string(contradictions);
    RegisterDcSat("Fig6e/qp3/Naive" + suffix, data->engine.get(),
                  PathSat(data->metadata, 3), NaiveOptions());
    RegisterDcSat("Fig6e/qp3/Opt" + suffix, data->engine.get(),
                  PathSat(data->metadata, 3), OptOptions());
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
