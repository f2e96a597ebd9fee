// Template fleet: register ONE constraint template, bind many members, and
// watch Poll decide them all through the class's one compiled plan.
//
// The monitor's registration API is template-first (DESIGN.md §13):
//
//   RegisterTemplate("payout", "q() :- TxOut(t, s, $pk, a)")  -> class
//   Bind(class, {Value::Str("U8Pk")})                         -> member
//
// and plain Add canonicalizes ground constraints into singleton-bound
// classes of their own, deduplicated by α-renamed skeleton + footprint
// (RegisterTemplate classes stay distinct — a label names exactly the fleet
// you bound to it). Below: one registered class with four bound members,
// plus two ground Adds that collapse onto one shared Add-class. A class
// compiles its plan once, at registration; each poll probes every member's
// binding through it over R and R ∪ T, and only a member neither probe
// settles compiles and searches its own grounded constraint (see
// bench_monitor_fanout for the 10^5/10^6-member numbers).
//
// Run: ./build/examples/template_fleet

#include <cstdio>
#include <string>
#include <vector>

#include "bitcoin/to_relational.h"
#include "core/monitor.h"
#include "query/parser.h"

using namespace bcdb;

namespace {

void Report(const ConstraintMonitor& monitor,
            const std::vector<ConstraintMonitor::Change>& changes) {
  for (const ConstraintMonitor::Change& change : changes) {
    std::printf("  %-28s %-10s -> %-10s (template %s, binding %s)\n",
                monitor.label(change.handle).c_str(),
                ConstraintMonitor::VerdictToString(change.before),
                ConstraintMonitor::VerdictToString(change.after),
                change.template_label.c_str(), change.binding_summary.c_str());
  }
  const ConstraintMonitor::PollStats& stats = monitor.poll_stats();
  std::printf("  [classes=%zu, class evaluations so far=%zu, members "
              "through class plans=%zu, member searches=%zu]\n",
              monitor.num_classes(), stats.classes_evaluated,
              stats.constraints_batched,
              stats.compile_cache_hits + stats.compile_cache_misses);
}

}  // namespace

int main() {
  // The paper's Bitcoin schema with its key constraints; a tiny chain state
  // plus three competing pending payouts.
  Catalog catalog = bitcoin::MakeBitcoinCatalog();
  auto constraints = bitcoin::MakeBitcoinConstraints(catalog);
  if (!constraints.ok()) return 1;
  auto db = BlockchainDatabase::Create(std::move(catalog),
                                       *std::move(constraints));
  if (!db.ok()) return 1;

  // On-chain: transaction 1 already paid AlicePk.
  if (!db->InsertCurrent("TxOut", Tuple({Value::Int(1), Value::Int(0),
                                         Value::Str("AlicePk"), Value::Int(5)}))
           .ok()) {
    return 1;
  }
  // Mempool: two transactions spending the same output (txId 2 — only one
  // can ever apply under the TxOut key) plus an independent payment.
  std::vector<PendingId> pending;
  for (const char* pk : {"BobPk", "CarolPk"}) {
    Transaction txn;
    txn.Add("TxOut",
            Tuple({Value::Int(2), Value::Int(0), Value::Str(pk), Value::Int(3)}));
    auto id = db->AddPending(txn);
    if (!id.ok()) return 1;
    pending.push_back(*id);
  }
  Transaction txn;
  txn.Add("TxOut", Tuple({Value::Int(3), Value::Int(0), Value::Str("DanPk"),
                          Value::Int(7)}));
  if (!db->AddPending(txn).ok()) return 1;

  // One template, one fleet: "was $pk ever paid?" per watched key.
  ConstraintMonitor monitor(&*db);
  auto payout = monitor.RegisterTemplate("payout", "q() :- TxOut(t, s, $pk, a)");
  if (!payout.ok()) {
    std::printf("RegisterTemplate failed: %s\n",
                payout.status().ToString().c_str());
    return 1;
  }
  for (const char* pk : {"AlicePk", "BobPk", "CarolPk", "MalloryPk"}) {
    if (!monitor.Bind(*payout, {Value::Str(pk)}).ok()) return 1;
  }
  // Ground Adds of the same shape canonicalize onto ONE shared Add-class:
  // each constant is extracted into a binding and the α-renamed skeletons
  // match, so these two members share one class plan too.
  for (const auto& [label, pk] :
       {std::pair{"dan-paid", "'DanPk'"}, std::pair{"eve-paid", "'EvePk'"}}) {
    auto ground = ParseDenialConstraint(std::string("q() :- TxOut(t, s, ") +
                                        pk + ", a)");
    if (!ground.ok() || !monitor.Add(label, *std::move(ground)).ok()) {
      return 1;
    }
  }

  std::printf("initial poll (2 classes, 6 members):\n");
  auto changes = monitor.Poll();
  if (!changes.ok()) return 1;
  Report(monitor, *changes);

  // Consensus picks Bob's spend: Carol's rival becomes impossible forever,
  // Bob's payment is now on-chain.
  if (!db->ApplyPending(pending[0]).ok()) return 1;
  if (!db->DiscardPending(pending[1]).ok()) return 1;
  std::printf("after the Bob/Carol conflict resolves:\n");
  changes = monitor.Poll();
  if (!changes.ok()) return 1;
  Report(monitor, *changes);
  return 0;
}
