// Escrow settlement: non-signature scripts under possible-world reasoning.
//
// Section 2 of the paper notes Bitcoin outputs can demand more than a
// signature: a hash preimage, or several signatures matching different
// public keys. This example locks a payment under a 2-of-3 escrow
// (buyer, seller, arbiter) plus a hash-locked bounty, then uses denial
// constraints to audit the settlement space: can the funds be released
// twice? can the bounty and the refund coexist?
//
// Run: ./build/examples/escrow_settlement

#include <cstdio>

#include "bitcoin/script.h"
#include "bitcoin/to_relational.h"
#include "core/dcsat.h"
#include "query/parser.h"

using namespace bcdb;
using namespace bcdb::bitcoin;

namespace {

bool Ask(DcSatEngine& engine, const char* question, const char* text,
         bool expect_satisfied) {
  auto q = ParseDenialConstraint(text);
  if (!q.ok()) {
    std::printf("parse error: %s\n", q.status().ToString().c_str());
    return false;
  }
  auto result = engine.Check(*q);
  if (!result.ok()) {
    std::printf("check error: %s\n", result.status().ToString().c_str());
    return false;
  }
  std::printf("%-46s %s\n", question,
              !result->decided    ? "UNDECIDED"
              : result->satisfied ? "NO (impossible in every world)"
                                  : "YES (possible)");
  return result->decided && result->satisfied == expect_satisfied;
}

}  // namespace

int main() {
  Blockchain chain;

  // Buyer funds two outputs: a 2-of-3 escrow for the purchase, and a
  // hash-locked bounty anyone can claim with the delivery receipt code.
  auto escrow = Script::MultiSig(2, {"BuyerPk", "SellerPk", "ArbiterPk"});
  if (!escrow.ok()) return 1;
  const std::string bounty = Script::HashLock("receipt-7421");

  BitcoinTransaction funding(
      {}, {TxOutput{*escrow, 8 * kCoin}, TxOutput{bounty, 2 * kCoin}});
  if (!chain.MineAndAppend({funding}).ok()) return 1;
  std::printf("Escrow funded: 8 BTC under 2-of-3 {Buyer, Seller, Arbiter}, "
              "2 BTC hash-locked bounty.\n\n");

  SimulatedNode node(chain);
  const OutPoint escrow_out{funding.txid(), 1};
  const OutPoint bounty_out{funding.txid(), 2};

  // Settlement candidates broadcast to the network:
  // (a) seller + arbiter release the purchase to the seller;
  auto release_witness = Script::MultiSigWitness(*escrow, {1, 2});
  if (!release_witness.ok()) return 1;
  BitcoinTransaction release(
      {TxInput{escrow_out, *escrow, 8 * kCoin, *release_witness}},
      {TxOutput{"SellerPk", 8 * kCoin}});
  // (b) buyer + arbiter refund the buyer — conflicts with (a);
  auto refund_witness = Script::MultiSigWitness(*escrow, {0, 2});
  if (!refund_witness.ok()) return 1;
  BitcoinTransaction refund(
      {TxInput{escrow_out, *escrow, 8 * kCoin, *refund_witness}},
      {TxOutput{"BuyerPk", 8 * kCoin}});
  // (c) the courier claims the bounty with the receipt preimage.
  BitcoinTransaction claim(
      {TxInput{bounty_out, bounty, 2 * kCoin, "receipt-7421"}},
      {TxOutput{"CourierPk", 2 * kCoin}});

  for (const BitcoinTransaction& tx : {release, refund, claim}) {
    if (!node.SubmitTransaction(tx).ok()) return 1;
  }
  std::printf("Pending: release (seller+arbiter), refund (buyer+arbiter), "
              "bounty claim — %zu conflicting pair(s) in the mempool.\n\n",
              node.mempool().ConflictPairs().size());

  auto db = BuildBlockchainDatabase(node);
  if (!db.ok()) return 1;
  DcSatEngine engine(&*db);

  bool all_as_expected = true;
  all_as_expected &= Ask(engine, "Can the seller be paid?",
                         "q() :- TxOut(t, s, 'SellerPk', a)", false);
  all_as_expected &= Ask(engine, "Can the buyer be refunded?",
                         "q() :- TxOut(t, s, 'BuyerPk', a)", false);
  all_as_expected &=
      Ask(engine, "Can BOTH release and refund happen?",
          "q() :- TxOut(t1, s1, 'SellerPk', a1), TxOut(t2, s2, 'BuyerPk', a2)",
          true);
  all_as_expected &= Ask(engine, "Can the courier collect the bounty?",
                         "q() :- TxOut(t, s, 'CourierPk', a)", false);
  all_as_expected &= Ask(
      engine, "Can the bounty coexist with the refund?",
      "q() :- TxOut(t1, s1, 'CourierPk', a1), TxOut(t2, s2, 'BuyerPk', a2)",
      false);
  all_as_expected &= Ask(
      engine, "Can anyone ever collect more than 8 BTC?",
      "[q(sum(a)) :- TxOut(t, s, 'SellerPk', a)] > 800000000", true);

  std::printf(
      "\nThe 2-of-3 escrow behaves exactly like the paper's conflicting "
      "transactions: release\nand refund spend the same output, so every "
      "possible world settles at most one of them,\nwhile the independent "
      "bounty claim composes freely with either outcome.\n");
  return all_as_expected ? 0 : 1;
}
