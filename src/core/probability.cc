#include "core/probability.h"

#include <cmath>

#include "core/get_maximal.h"
#include "query/compiled_query.h"
#include "util/rng.h"

namespace bcdb {

WorldView SampleWorld(const BlockchainDatabase& db,
                      const InclusionModel& model, Xoshiro256& rng) {
  std::vector<PendingId> order = db.PendingIds();
  // Fisher–Yates shuffle: arrival order of the offers.
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  std::vector<PendingId> offered;
  offered.reserve(order.size());
  for (PendingId id : order) {
    if (rng.NextBool(model.ProbabilityOf(id))) offered.push_back(id);
  }
  // Append offered transactions greedily; GetMaximal's re-sweeps let
  // dependants whose parents appear later in arrival order still make it
  // (nodes retry their mempool every block).
  return GetMaximal(db, offered);
}

StatusOr<ViolationEstimate> EstimateViolationProbability(
    const BlockchainDatabase& db, const DenialConstraint& q,
    const InclusionModel& model, std::size_t samples, std::uint64_t seed) {
  if (samples == 0) {
    return Status::InvalidArgument("need at least one sample");
  }
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(q, &db.database());
  if (!compiled.ok()) return compiled.status();
  BCDB_RETURN_IF_ERROR(compiled->RequireGround());

  Xoshiro256 rng(seed);
  ViolationEstimate estimate;
  estimate.samples = samples;
  for (std::size_t s = 0; s < samples; ++s) {
    const WorldView world = SampleWorld(db, model, rng);
    if (compiled->Evaluate(world)) ++estimate.violations;
  }
  estimate.probability =
      static_cast<double>(estimate.violations) / static_cast<double>(samples);
  estimate.standard_error =
      std::sqrt(estimate.probability * (1.0 - estimate.probability) /
                static_cast<double>(samples));
  return estimate;
}

}  // namespace bcdb
