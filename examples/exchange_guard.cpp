// Exchange guard: the paper's motivating example, end-to-end on the full
// Bitcoin substrate (node + mempool + miner + relational image).
//
// A Bitcoin exchange issues a customer withdrawal with a low fee; the miner
// skips it. The customer complains, the exchange wants to re-issue with a
// higher fee. Before broadcasting, the exchange dry-runs the denial
// constraint "this customer is withdrawn more than requested" over the
// blockchain database the node sees — catching the historical MtGox-style
// double-withdrawal failure mode before it can happen.
//
// Run: ./build/examples/exchange_guard

#include <cstdio>

#include "bitcoin/node.h"
#include "bitcoin/to_relational.h"
#include "core/dcsat.h"
#include "workload/constraints.h"

using namespace bcdb;
using namespace bcdb::bitcoin;

namespace {

BitcoinTransaction Withdrawal(const OutPoint& source, const Utxo& utxo,
                              const std::string& customer, Satoshi amount,
                              Satoshi fee) {
  std::vector<TxOutput> outputs{TxOutput{customer, amount}};
  const Satoshi change = utxo.amount - amount - fee;
  if (change > 0) outputs.push_back(TxOutput{utxo.pubkey, change});
  return BitcoinTransaction(
      {TxInput{source, utxo.pubkey, utxo.amount, SignatureFor(utxo.pubkey)}},
      std::move(outputs));
}

/// The guard: over every possible future of the chain, does the customer
/// collect more than `limit` satoshi from us? (sum is monotone here, so the
/// check is exact and usually answered by the R ∪ T pre-check.)
bool SafeToBroadcast(const SimulatedNode& node, const std::string& customer,
                     Satoshi limit) {
  auto db = BuildBlockchainDatabase(node);
  if (!db.ok()) return false;
  DcSatEngine engine(&*db);
  const DenialConstraint overdraw =
      workload::MakeAggregateConstraint(customer, limit + 1);
  auto result = engine.Check(overdraw);
  if (!result.ok()) {
    std::printf("  guard error: %s\n", result.status().ToString().c_str());
    return false;
  }
  std::printf("  guard: paying %s more than %lld sat is %s\n",
              customer.c_str(), static_cast<long long>(limit),
              !result->decided    ? "UNDECIDED"
              : result->satisfied ? "IMPOSSIBLE in every possible world"
                                  : "POSSIBLE in some possible world");
  return result->decided && result->satisfied;
}

}  // namespace

int main() {
  SimulatedNode node;
  MinerPolicy policy;
  policy.miner_pubkey = "ExchangePk";

  // The exchange mines a few blocks to fund its hot wallet.
  for (int i = 0; i < 3; ++i) {
    if (!node.MineBlock(policy).ok()) return 1;
  }
  std::printf("Exchange hot wallet funded: %zu UTXOs on chain height %zu\n\n",
              node.chain().utxos().size(), node.chain().height());

  // Customer Carol requests a 10 BTC withdrawal. The exchange issues it
  // from its first coinbase with a fee too low for the miner's policy.
  const Satoshi kWithdrawal = 10 * kCoin;
  const BitcoinTransaction& cb1 = node.chain().blocks()[1].transactions()[0];
  const OutPoint source1{cb1.txid(), 1};
  const Utxo wallet1{cb1.outputs()[0].pubkey, cb1.outputs()[0].amount};
  BitcoinTransaction low_fee =
      Withdrawal(source1, wallet1, "CarolPk", kWithdrawal, /*fee=*/100);
  if (!node.SubmitTransaction(low_fee).ok()) return 1;
  std::printf("Issued withdrawal tx %lld (fee 100 sat)\n",
              static_cast<long long>(low_fee.txid()));

  // The miner requires 1000 sat; the withdrawal stays in the mempool.
  MinerPolicy greedy = policy;
  greedy.min_fee = 1000;
  auto mined = node.MineBlock(greedy);
  if (!mined.ok()) return 1;
  std::printf("Block mined with %zu withdrawal(s); mempool still holds %zu "
              "pending tx(s)\n\n",
              *mined, node.mempool().size());

  // Carol complains. Option A: re-issue from a DIFFERENT wallet output
  // (higher fee). Dry-run the guard with the candidate added.
  const BitcoinTransaction& cb2 = node.chain().blocks()[2].transactions()[0];
  const OutPoint source2{cb2.txid(), 1};
  const Utxo wallet2{cb2.outputs()[0].pubkey, cb2.outputs()[0].amount};
  BitcoinTransaction careless =
      Withdrawal(source2, wallet2, "CarolPk", kWithdrawal, /*fee=*/5000);
  {
    SimulatedNode dry_run = node;  // Hypothetical: never broadcast.
    if (!dry_run.SubmitTransaction(careless).ok()) return 1;
    std::printf("Option A: re-issue from a different wallet output\n");
    if (!SafeToBroadcast(dry_run, "CarolPk", kWithdrawal)) {
      std::printf("  -> rejected: the stuck transaction may still confirm; "
                  "Carol could be paid twice.\n\n");
    }
  }

  // Option B: re-issue by double-spending the SAME output the stuck
  // withdrawal uses — the two transactions conflict, so at most one ever
  // confirms.
  BitcoinTransaction conflicting =
      Withdrawal(source1, wallet1, "CarolPk", kWithdrawal, /*fee=*/5000);
  {
    SimulatedNode dry_run = node;
    if (!dry_run.SubmitTransaction(conflicting).ok()) return 1;
    std::printf("Option B: re-issue as a conflicting transaction\n");
    if (!SafeToBroadcast(dry_run, "CarolPk", kWithdrawal)) return 1;
    std::printf("  -> approved: broadcast it.\n\n");
  }

  // Broadcast for real and let the network confirm whichever wins.
  if (!node.SubmitTransaction(conflicting).ok()) return 1;
  if (!node.MineBlock(greedy).ok()) return 1;
  std::printf("After the next block: chain height %zu; mempool drained to "
              "%zu entries (the losing withdrawal was evicted as permanently "
              "conflicted).\n",
              node.chain().height(), node.mempool().size());

  // Final audit over the *chain only*.
  Satoshi carol_received = 0;
  for (const auto& [point, utxo] : node.chain().utxos()) {
    if (utxo.pubkey == "CarolPk") carol_received += utxo.amount;
  }
  std::printf("Carol's on-chain balance: %lld sat (requested %lld)\n",
              static_cast<long long>(carol_received),
              static_cast<long long>(kWithdrawal));
  return carol_received == kWithdrawal ? 0 : 1;
}
