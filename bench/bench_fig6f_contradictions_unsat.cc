// Figure 6f: execution time of qp3 (unsatisfied) as the number of injected
// contradictions varies over 10..50. The paper observes the *inverse*
// trend: fewer contradictions mean larger cliques, hence larger maximal
// worlds to materialize and evaluate, so runtime peaks at the low end.

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
    RegisterDcSat("Fig6f/qp3/Naive" + suffix, data->engine.get(),
                  PathUnsat(data->metadata, 3), NaiveOptions());
    RegisterDcSat("Fig6f/qp3/Opt" + suffix, data->engine.get(),
                  PathUnsat(data->metadata, 3), OptOptions());
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
