// Network divergence: denial constraints are a *local* judgment.
//
// The paper (footnote 6) notes that the pending set T is not necessarily
// identical across nodes at a given moment — transactions propagate by
// gossip. This example runs a 6-node P2P simulation: an exchange broadcasts
// a withdrawal at node 0, and every node answers the same denial constraint
// ("the customer can be paid") from its own chain + mempool while the
// gossip is still in flight. Verdicts disagree until the network converges.
//
// Run: ./build/examples/network_divergence

#include <cstdio>
#include <string>

#include "bitcoin/to_relational.h"
#include "core/dcsat.h"
#include "network/simulator.h"
#include "query/parser.h"

using namespace bcdb;
using namespace bcdb::net;
using namespace bcdb::bitcoin;

namespace {

std::string VerdictAt(const NetworkSimulator& net, NodeId v) {
  auto db = BuildBlockchainDatabase(net.node(v));
  if (!db.ok()) return "error";
  DcSatEngine engine(&*db);
  auto q = ParseDenialConstraint("q() :- TxOut(t, s, 'CustomerPk', a)");
  if (!q.ok()) return "error";
  auto result = engine.Check(*q);
  if (!result.ok()) return "error";
  if (!result->decided) return "undecided";
  return result->satisfied ? "impossible" : "possible";
}

void PrintRow(const NetworkSimulator& net) {
  std::printf("t=%5.2fs |", net.now());
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    std::printf(" node%zu: %-10s |", v, VerdictAt(net, v).c_str());
  }
  std::printf(" jaccard(0,%zu)=%.2f\n", net.num_nodes() - 1,
              net.MempoolJaccard(0, net.num_nodes() - 1));
}

}  // namespace

int main() {
  NetworkParams params;
  params.num_nodes = 6;
  params.extra_edges = 0;  // Ring: propagation takes several hops.
  params.min_latency = 0.8;
  params.max_latency = 1.2;
  params.seed = 11;
  NetworkSimulator net(params);

  // Fund the exchange via a mined block and let it settle everywhere.
  MinerPolicy policy;
  policy.miner_pubkey = "ExchangePk";
  if (!net.MineAt(0, policy).ok()) return 1;
  net.Run();

  const BitcoinTransaction& coinbase =
      net.node(0).chain().blocks()[1].transactions()[0];
  BitcoinTransaction withdrawal(
      {TxInput{OutPoint{coinbase.txid(), 1}, "ExchangePk", kBlockReward,
               SignatureFor("ExchangePk")}},
      {TxOutput{"CustomerPk", 10 * kCoin},
       TxOutput{"ExchangePk", kBlockReward - 10 * kCoin - 1000}});

  std::printf("Denial constraint per node: \"CustomerPk receives bitcoins\" "
              "— possible or impossible?\n\n");
  std::printf("Before broadcast:\n");
  PrintRow(net);

  if (!net.BroadcastTransaction(0, withdrawal).ok()) return 1;
  std::printf("\nWithdrawal broadcast at node 0; gossip in flight "
              "(ring topology, ~1s per hop):\n");
  for (int step = 0; step < 4; ++step) {
    net.RunUntil(net.now() + 1.0);
    PrintRow(net);
  }
  net.Run();
  std::printf("\nAfter convergence:\n");
  PrintRow(net);

  std::printf(
      "\nWhile the transaction travels the ring, nodes that have not heard "
      "of it still call\nthe payout impossible — the same DCSat question has "
      "node-local answers until T converges.\n");
  return 0;
}
