#include "core/tractable.h"

#include <algorithm>
#include <span>
#include <vector>

#include "analysis/analyzer.h"
#include "core/dcsat.h"
#include "core/get_maximal.h"
#include "query/compiled_query.h"

namespace bcdb {

namespace {

/// Can the supported tuples all come from one consistent world? Each tuple
/// is contributed by the base state (free) or by pending transactions; we
/// search over the (constantly many) owner choices for a set that is
/// node-valid and pairwise adjacent in G^fd_T.
bool SupportRealizable(const Database& database, const FdGraph& fd_graph,
                       const std::vector<CompiledQuery::SupportEntry>& support,
                       std::vector<PendingId>* witness) {
  // Owner options per supported tuple; a base-owned tuple imposes nothing.
  std::vector<std::vector<TupleOwner>> options;
  for (const CompiledQuery::SupportEntry& entry : support) {
    const std::span<const TupleOwner> owners =
        database.relation(entry.relation_id).owners(entry.tuple_id);
    if (std::find(owners.begin(), owners.end(), kBaseOwner) != owners.end()) {
      continue;  // Always present.
    }
    std::vector<TupleOwner> valid_owners;
    for (TupleOwner owner : owners) {
      if (fd_graph.valid_nodes().Test(static_cast<std::size_t>(owner))) {
        valid_owners.push_back(owner);
      }
    }
    if (valid_owners.empty()) return false;
    options.push_back(std::move(valid_owners));
  }

  // Backtracking over owner choices (at most |q| tuples, few owners each).
  std::vector<TupleOwner> chosen;
  std::function<bool(std::size_t)> pick = [&](std::size_t i) -> bool {
    if (i == options.size()) return true;
    for (TupleOwner candidate : options[i]) {
      bool compatible = true;
      for (TupleOwner prior : chosen) {
        if (prior != candidate &&
            !fd_graph.Adjacent(static_cast<PendingId>(prior),
                               static_cast<PendingId>(candidate))) {
          compatible = false;
          break;
        }
      }
      if (!compatible) continue;
      chosen.push_back(candidate);
      if (pick(i + 1)) return true;
      chosen.pop_back();
    }
    return false;
  };
  if (!pick(0)) return false;

  if (witness != nullptr) {
    witness->clear();
    for (TupleOwner owner : chosen) {
      witness->push_back(static_cast<PendingId>(owner));
    }
    std::sort(witness->begin(), witness->end());
    witness->erase(std::unique(witness->begin(), witness->end()),
                   witness->end());
  }
  return true;
}

}  // namespace

std::optional<DcSatResult> TryTractableDcSat(const BlockchainDatabase& db,
                                             const FdGraph& fd_graph,
                                             const CompiledQuery& compiled,
                                             const Tuple& binding,
                                             TractabilityClass klass,
                                             std::size_t support_limit) {
  if (klass != TractabilityClass::kPtimeIndOnly &&
      klass != TractabilityClass::kPtimeFdOnly) {
    return std::nullopt;
  }
  DcSatResult result;
  result.stats.algorithm_used = DcSatAlgorithm::kTractable;
  result.stats.num_pending = db.CountPending();

  // --- IND-only (or unconstrained): unique maximal world. ---
  if (klass == TractabilityClass::kPtimeIndOnly) {
    GetMaximalStats maximal_stats;
    const WorldView maximal = GetMaximal(db, db.PendingIds(), &maximal_stats);
    result.stats.num_worlds_evaluated = 1;
    result.stats.maximal_probes = maximal_stats.probes;
    result.satisfied = !compiled.Evaluate(maximal, binding);
    if (!result.satisfied) result.witness = maximal.active_bits().ToVector();
    return result;
  }

  // --- FD-only: assignment supports against G^fd_T. ---
  result.stats.num_valid_nodes = fd_graph.valid_nodes().Count();
  result.stats.fd_conflict_pairs = fd_graph.num_conflict_pairs();

  bool realizable = false;
  bool abstained = false;
  std::size_t supports_seen = 0;
  std::vector<PendingId> witness;
  compiled.EnumerateSupports(
      db.PendingUnionView(), binding,
      [&](const std::vector<CompiledQuery::SupportEntry>& support) {
        if (++supports_seen > support_limit) {
          abstained = true;
          return false;
        }
        if (SupportRealizable(db.database(), fd_graph, support, &witness)) {
          realizable = true;
          return false;
        }
        return true;
      });
  if (abstained) return std::nullopt;

  result.stats.num_worlds_evaluated = supports_seen;
  result.satisfied = !realizable;
  if (realizable) result.witness = std::move(witness);
  return result;
}

}  // namespace bcdb
