// Ablation of the Section-6.3 optimizations, beyond the paper's figures:
//  * pre-check (evaluate q over R ∪ T first),
//  * constant-coverage filtering of components (OptDCSat),
//  * Tomita pivoting inside Bron–Kerbosch.
//
// Unsatisfied constraints run on the full default dataset. The
// precheck-off *satisfied* case runs on a deliberately small pending set:
// without the pre-check a satisfied constraint must enumerate every maximal
// clique, which is exponential in the number of contradictions — the
// ablation demonstrates exactly that cliff without taking hours.
//
// Pass --smoke (or BCDB_BENCH_SMOKE=1) to run only the small-set rows, a
// seconds-scale run for CI.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace bcdb;
  using namespace bcdb::bench;
  using namespace bcdb::workload;

  auto with = [](DcSatOptions options, bool precheck, bool covers,
                 bool pivot) {
    options.use_precheck = precheck;
    options.use_covers = covers;
    options.use_pivot = pivot;
    return options;
  };

  const bool smoke = ApplySmokeFlag(&argc, argv);

  // --- Unsatisfied qp3 on the default dataset. ---
  std::unique_ptr<PreparedDataset> data;
  if (!smoke) {
    data = Prepare(DefaultDataset());
    DcSatEngine* engine = data->engine.get();
    const bitcoin::WorkloadMetadata& meta = data->metadata;
    const DenialConstraint qp3 = PathUnsat(meta, 3);
    RegisterDcSat("Ablation/unsat_qp3/Opt/full", engine, qp3,
                  with(OptOptions(), true, true, true));
    RegisterDcSat("Ablation/unsat_qp3/Opt/no_precheck", engine, qp3,
                  with(OptOptions(), false, true, true));
    RegisterDcSat("Ablation/unsat_qp3/Opt/no_covers", engine, qp3,
                  with(OptOptions(), true, false, true));
    RegisterDcSat("Ablation/unsat_qp3/Opt/no_pivot", engine, qp3,
                  with(OptOptions(), true, true, false));
    RegisterDcSat("Ablation/unsat_qp3/Naive/full", engine, qp3,
                  with(NaiveOptions(), true, true, true));
    RegisterDcSat("Ablation/unsat_qp3/Naive/no_pivot", engine, qp3,
                  with(NaiveOptions(), true, true, false));
  }

  // --- Satisfied qp3: the pre-check cliff, on a small pending set. ---
  DatasetSpec small = WithPendingTotal(S100(), 300);
  small.params.num_contradictions = 6;
  small.name = "S100-small";
  auto small_data = Prepare(small);
  {
    DcSatEngine* engine = small_data->engine.get();
    const bitcoin::WorkloadMetadata& meta = small_data->metadata;
    const DenialConstraint qp3 = PathSat(meta, 3);
    RegisterDcSat("Ablation/sat_qp3_small/Naive/precheck", engine, qp3,
                  with(NaiveOptions(), true, true, true));
    RegisterDcSat("Ablation/sat_qp3_small/Naive/no_precheck", engine, qp3,
                  with(NaiveOptions(), false, true, true));
    RegisterDcSat("Ablation/sat_qp3_small/Opt/precheck", engine, qp3,
                  with(OptOptions(), true, true, true));
    RegisterDcSat("Ablation/sat_qp3_small/Opt/no_precheck", engine, qp3,
                  with(OptOptions(), false, true, true));
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
