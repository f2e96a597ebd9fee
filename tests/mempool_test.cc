#include <gtest/gtest.h>

#include "bitcoin/mempool.h"
#include "bitcoin/node.h"

namespace bcdb {
namespace bitcoin {
namespace {

BitcoinTransaction Payment(const OutPoint& src, const std::string& from,
                           Satoshi in_amount, const std::string& to,
                           Satoshi amount, Satoshi fee = 1000) {
  std::vector<TxOutput> outputs{TxOutput{to, amount}};
  const Satoshi change = in_amount - amount - fee;
  if (change > 0) outputs.push_back(TxOutput{from, change});
  return BitcoinTransaction(
      {TxInput{src, from, in_amount, SignatureFor(from)}}, outputs);
}

class MempoolTest : public ::testing::Test {
 protected:
  MempoolTest() {
    coinbase_ = std::make_unique<BitcoinTransaction>(
        BitcoinTransaction::Coinbase("AlicePk", kBlockReward, 1));
    EXPECT_TRUE(chain_.MineAndAppend({*coinbase_}).ok());
    alice_utxo_ = OutPoint{coinbase_->txid(), 1};
  }

  Blockchain chain_;
  Mempool mempool_;
  std::unique_ptr<BitcoinTransaction> coinbase_;
  OutPoint alice_utxo_;
};

TEST_F(MempoolTest, AcceptsValidSpendOfChainUtxo) {
  EXPECT_TRUE(mempool_
                  .Add(chain_, Payment(alice_utxo_, "AlicePk", kBlockReward,
                                       "BobPk", kCoin))
                  .ok());
  EXPECT_EQ(mempool_.size(), 1u);
}

TEST_F(MempoolTest, RejectsNegativeOutputAmount) {
  // The chain rejects a negative output, so the mempool must too: it would
  // otherwise hold a transaction no block can ever include.
  BitcoinTransaction negative(
      {TxInput{alice_utxo_, "AlicePk", kBlockReward, SignatureFor("AlicePk")}},
      {TxOutput{"BobPk", kCoin}, TxOutput{"AlicePk", -kCoin}});
  EXPECT_EQ(mempool_.Add(chain_, negative).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(mempool_.size(), 0u);
}

TEST_F(MempoolTest, AcceptsDependencyChains) {
  BitcoinTransaction parent =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "BobPk", kCoin);
  BitcoinTransaction child =
      Payment(OutPoint{parent.txid(), 1}, "BobPk", kCoin, "CarolPk", kCoin / 2);
  ASSERT_TRUE(mempool_.Add(chain_, parent).ok());
  EXPECT_TRUE(mempool_.Add(chain_, child).ok());
}

TEST_F(MempoolTest, RejectsChildBeforeParent) {
  BitcoinTransaction parent =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "BobPk", kCoin);
  BitcoinTransaction child =
      Payment(OutPoint{parent.txid(), 1}, "BobPk", kCoin, "CarolPk", kCoin / 2);
  EXPECT_EQ(mempool_.Add(chain_, child).code(), StatusCode::kNotFound);
}

TEST_F(MempoolTest, KeepsConflictingTransactions) {
  // Unlike relay policy, the model keeps signed double spends: either may
  // still confirm, which is exactly what DCSat must reason about.
  BitcoinTransaction pay_bob =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "BobPk", kCoin);
  BitcoinTransaction pay_carol =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "CarolPk", kCoin);
  ASSERT_TRUE(mempool_.Add(chain_, pay_bob).ok());
  ASSERT_TRUE(mempool_.Add(chain_, pay_carol).ok());
  auto conflicts = mempool_.ConflictPairs();
  ASSERT_EQ(conflicts.size(), 1u);
}

TEST_F(MempoolTest, RejectsDuplicatesAndCoinbases) {
  BitcoinTransaction pay =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "BobPk", kCoin);
  ASSERT_TRUE(mempool_.Add(chain_, pay).ok());
  EXPECT_EQ(mempool_.Add(chain_, pay).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(
      mempool_.Add(chain_, BitcoinTransaction::Coinbase("X", kCoin, 9)).ok());
}

TEST_F(MempoolTest, RejectsBadSignatureAndMismatch) {
  BitcoinTransaction forged(
      {TxInput{alice_utxo_, "AlicePk", kBlockReward, "EveSig"}},
      {TxOutput{"EvePk", kCoin}});
  EXPECT_FALSE(mempool_.Add(chain_, forged).ok());

  BitcoinTransaction wrong_amount(
      {TxInput{alice_utxo_, "AlicePk", kCoin, SignatureFor("AlicePk")}},
      {TxOutput{"BobPk", kCoin / 2}});
  EXPECT_FALSE(mempool_.Add(chain_, wrong_amount).ok());
}

TEST_F(MempoolTest, RejectsSpendOfChainSpentOutput) {
  BitcoinTransaction pay =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "BobPk", kCoin);
  ASSERT_TRUE(chain_.MineAndAppend({pay}).ok());
  // alice_utxo_ is now spent on-chain: a rival can never confirm.
  BitcoinTransaction rival =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "CarolPk", kCoin);
  EXPECT_EQ(mempool_.Add(chain_, rival).code(), StatusCode::kNotFound);
}

TEST_F(MempoolTest, EvictionOnConfirmation) {
  BitcoinTransaction pay_bob =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "BobPk", kCoin);
  BitcoinTransaction pay_carol =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "CarolPk", kCoin);
  BitcoinTransaction child =
      Payment(OutPoint{pay_carol.txid(), 1}, "CarolPk", kCoin, "DanPk",
              kCoin / 2);
  ASSERT_TRUE(mempool_.Add(chain_, pay_bob).ok());
  ASSERT_TRUE(mempool_.Add(chain_, pay_carol).ok());
  ASSERT_TRUE(mempool_.Add(chain_, child).ok());

  // Confirm pay_bob: pay_carol loses its input, child loses its parent.
  ASSERT_TRUE(chain_.MineAndAppend({pay_bob}).ok());
  const std::size_t evicted =
      mempool_.RemoveConfirmedAndInvalid(chain_, chain_.tip());
  EXPECT_EQ(evicted, 3u);
  EXPECT_EQ(mempool_.size(), 0u);
}

TEST_F(MempoolTest, SurvivorsKeptAfterConfirmation) {
  BitcoinTransaction pay_bob =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "BobPk", kCoin);
  BitcoinTransaction child =
      Payment(OutPoint{pay_bob.txid(), 1}, "BobPk", kCoin, "DanPk", kCoin / 2);
  ASSERT_TRUE(mempool_.Add(chain_, pay_bob).ok());
  ASSERT_TRUE(mempool_.Add(chain_, child).ok());

  ASSERT_TRUE(chain_.MineAndAppend({pay_bob}).ok());
  const std::size_t evicted =
      mempool_.RemoveConfirmedAndInvalid(chain_, chain_.tip());
  EXPECT_EQ(evicted, 1u);  // Only the confirmed parent.
  EXPECT_EQ(mempool_.size(), 1u);
  EXPECT_TRUE(mempool_.Contains(child.txid()));
}

TEST_F(MempoolTest, ResyncDropsEntriesStrandedByReorg) {
  // A transaction funded by Alice's coinbase, and its child.
  BitcoinTransaction pay_bob =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "BobPk", kCoin);
  BitcoinTransaction child =
      Payment(OutPoint{pay_bob.txid(), 1}, "BobPk", kCoin, "DanPk", kCoin / 2);
  ASSERT_TRUE(mempool_.Add(chain_, pay_bob).ok());
  ASSERT_TRUE(mempool_.Add(chain_, child).ok());

  // A reorg to a rival branch strands them: Alice's coinbase no longer
  // exists on the active chain, so the whole ancestry cascades out.
  std::vector<Block> branch;
  BlockHash prev = chain_.blocks()[0].hash();
  for (std::uint64_t h = 1; h <= 2; ++h) {
    branch.emplace_back(
        h, prev,
        std::vector<BitcoinTransaction>{
            BitcoinTransaction::Coinbase("RivalPk", kBlockReward, h)});
    prev = branch.back().hash();
  }
  ASSERT_TRUE(chain_.AcceptBlock(branch[0]).ok());
  auto reorg = chain_.AcceptBlock(branch[1]);
  ASSERT_TRUE(reorg.ok());
  ASSERT_EQ(reorg->kind, ChainUpdate::Kind::kReorged);

  const std::vector<TxId> evicted = mempool_.Resync(chain_);
  EXPECT_EQ(evicted.size(), 2u);
  EXPECT_EQ(mempool_.size(), 0u);
}

TEST_F(MempoolTest, EvictToCapacityDropsCheapestFirstWithDescendants) {
  // Three independent outputs to spend from: mine two more coinbases.
  BitcoinTransaction cb2 = BitcoinTransaction::Coinbase(
      "AlicePk", kBlockReward, chain_.height() + 1);
  ASSERT_TRUE(chain_.MineAndAppend({cb2}).ok());
  BitcoinTransaction cb3 = BitcoinTransaction::Coinbase(
      "AlicePk", kBlockReward, chain_.height() + 1);
  ASSERT_TRUE(chain_.MineAndAppend({cb3}).ok());

  BitcoinTransaction cheap = Payment(alice_utxo_, "AlicePk", kBlockReward,
                                     "BobPk", kCoin, /*fee=*/100);
  BitcoinTransaction cheap_child = Payment(OutPoint{cheap.txid(), 1}, "BobPk",
                                           kCoin, "DanPk", kCoin / 2,
                                           /*fee=*/50'000);
  BitcoinTransaction mid = Payment(OutPoint{cb2.txid(), 1}, "AlicePk",
                                   kBlockReward, "CarolPk", kCoin,
                                   /*fee=*/5'000);
  BitcoinTransaction rich = Payment(OutPoint{cb3.txid(), 1}, "AlicePk",
                                    kBlockReward, "ErinPk", kCoin,
                                    /*fee=*/90'000);
  ASSERT_TRUE(mempool_.Add(chain_, cheap).ok());
  ASSERT_TRUE(mempool_.Add(chain_, cheap_child).ok());
  ASSERT_TRUE(mempool_.Add(chain_, mid).ok());
  ASSERT_TRUE(mempool_.Add(chain_, rich).ok());

  // Capacity 2: the lowest-fee entry goes first, taking its now-unfunded
  // child with it — which already lands the pool at the cap, so the
  // mid-fee transaction survives.
  const std::vector<TxId> evicted = mempool_.EvictToCapacity(chain_, 2);
  EXPECT_EQ(evicted.size(), 2u);
  EXPECT_EQ(mempool_.size(), 2u);
  EXPECT_FALSE(mempool_.Contains(cheap.txid()));
  EXPECT_FALSE(mempool_.Contains(cheap_child.txid()));
  EXPECT_TRUE(mempool_.Contains(mid.txid()));
  EXPECT_TRUE(mempool_.Contains(rich.txid()));

  // Already within capacity: a no-op.
  EXPECT_TRUE(mempool_.EvictToCapacity(chain_, 2).empty());
}

TEST_F(MempoolTest, ReplaceByFeeRequiresStrictlyHigherFee) {
  BitcoinTransaction original = Payment(alice_utxo_, "AlicePk", kBlockReward,
                                        "BobPk", kCoin, /*fee=*/10'000);
  ASSERT_TRUE(mempool_.Add(chain_, original).ok());

  // Equal fee: rejected, pool unchanged.
  BitcoinTransaction equal = Payment(alice_utxo_, "AlicePk", kBlockReward,
                                     "CarolPk", kCoin, /*fee=*/10'000);
  EXPECT_EQ(mempool_.ReplaceByFee(chain_, equal).status().code(),
            StatusCode::kConstraintViolation);
  EXPECT_TRUE(mempool_.Contains(original.txid()));
  EXPECT_EQ(mempool_.size(), 1u);

  // Strictly higher fee: the conflictor is displaced.
  BitcoinTransaction bumped = Payment(alice_utxo_, "AlicePk", kBlockReward,
                                      "CarolPk", kCoin, /*fee=*/25'000);
  auto displaced = mempool_.ReplaceByFee(chain_, bumped);
  ASSERT_TRUE(displaced.ok()) << displaced.status();
  EXPECT_EQ(*displaced, std::vector<TxId>{original.txid()});
  EXPECT_FALSE(mempool_.Contains(original.txid()));
  EXPECT_TRUE(mempool_.Contains(bumped.txid()));
  EXPECT_EQ(mempool_.size(), 1u);
}

TEST_F(MempoolTest, ReplaceByFeeOutbidsSummedDisplacedFees) {
  // Two coinbases so two disjoint conflictors can exist.
  BitcoinTransaction cb2 = BitcoinTransaction::Coinbase(
      "AlicePk", kBlockReward, chain_.height() + 1);
  ASSERT_TRUE(chain_.MineAndAppend({cb2}).ok());
  BitcoinTransaction a = Payment(alice_utxo_, "AlicePk", kBlockReward,
                                 "BobPk", kCoin, /*fee=*/10'000);
  BitcoinTransaction b = Payment(OutPoint{cb2.txid(), 1}, "AlicePk",
                                 kBlockReward, "CarolPk", kCoin,
                                 /*fee=*/15'000);
  ASSERT_TRUE(mempool_.Add(chain_, a).ok());
  ASSERT_TRUE(mempool_.Add(chain_, b).ok());

  // One replacement spending BOTH outpoints must outbid fee(a) + fee(b).
  BitcoinTransaction low(
      {TxInput{alice_utxo_, "AlicePk", kBlockReward, SignatureFor("AlicePk")},
       TxInput{OutPoint{cb2.txid(), 1}, "AlicePk", kBlockReward,
               SignatureFor("AlicePk")}},
      {TxOutput{"DanPk", 2 * kBlockReward - 20'000}});
  EXPECT_EQ(mempool_.ReplaceByFee(chain_, low).status().code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(mempool_.size(), 2u);

  BitcoinTransaction high(
      {TxInput{alice_utxo_, "AlicePk", kBlockReward, SignatureFor("AlicePk")},
       TxInput{OutPoint{cb2.txid(), 1}, "AlicePk", kBlockReward,
               SignatureFor("AlicePk")}},
      {TxOutput{"DanPk", 2 * kBlockReward - 30'000}});
  auto displaced = mempool_.ReplaceByFee(chain_, high);
  ASSERT_TRUE(displaced.ok()) << displaced.status();
  EXPECT_EQ(displaced->size(), 2u);
  EXPECT_EQ(mempool_.size(), 1u);
  EXPECT_TRUE(mempool_.Contains(high.txid()));
}

TEST_F(MempoolTest, ReplaceByFeeDisplacesDescendantsToo) {
  BitcoinTransaction original = Payment(alice_utxo_, "AlicePk", kBlockReward,
                                        "BobPk", kCoin, /*fee=*/10'000);
  BitcoinTransaction child =
      Payment(OutPoint{original.txid(), 1}, "BobPk", kCoin, "DanPk",
              kCoin / 2, /*fee=*/1'000);
  ASSERT_TRUE(mempool_.Add(chain_, original).ok());
  ASSERT_TRUE(mempool_.Add(chain_, child).ok());

  BitcoinTransaction bumped = Payment(alice_utxo_, "AlicePk", kBlockReward,
                                      "CarolPk", kCoin, /*fee=*/50'000);
  auto displaced = mempool_.ReplaceByFee(chain_, bumped);
  ASSERT_TRUE(displaced.ok()) << displaced.status();
  // The conflictor and its orphaned descendant both leave.
  EXPECT_EQ(displaced->size(), 2u);
  EXPECT_EQ(mempool_.size(), 1u);
  EXPECT_TRUE(mempool_.Contains(bumped.txid()));
}

TEST_F(MempoolTest, ReplaceByFeeWithoutConflictsActsAsAdd) {
  BitcoinTransaction pay = Payment(alice_utxo_, "AlicePk", kBlockReward,
                                   "BobPk", kCoin, /*fee=*/1'000);
  auto displaced = mempool_.ReplaceByFee(chain_, pay);
  ASSERT_TRUE(displaced.ok()) << displaced.status();
  EXPECT_TRUE(displaced->empty());
  EXPECT_TRUE(mempool_.Contains(pay.txid()));
  // An invalid replacement (unknown funding) fails and leaves the pool
  // unchanged even after its conflictors were provisionally evicted.
  BitcoinTransaction bogus = Payment(OutPoint{0x999, 1}, "NoonePk", kCoin,
                                     "DanPk", kCoin, /*fee=*/2'000);
  EXPECT_FALSE(mempool_.ReplaceByFee(chain_, bogus).ok());
  EXPECT_EQ(mempool_.size(), 1u);
  EXPECT_TRUE(mempool_.Contains(pay.txid()));
}

TEST_F(MempoolTest, NodeReorgReinjectsDisconnectedTransactions) {
  // A node confirms Alice's payment, then watches a longer rival branch
  // orphan that block: the payment must return to the mempool.
  SimulatedNode node;
  BitcoinTransaction cb =
      BitcoinTransaction::Coinbase("AlicePk", kBlockReward, 1);
  Block a1(1, node.chain().tip().hash(), {cb});
  ASSERT_TRUE(node.ReceiveBlock(a1).ok());
  BitcoinTransaction pay = Payment(OutPoint{cb.txid(), 1}, "AlicePk",
                                   kBlockReward, "BobPk", kCoin);
  Block a2(2, a1.hash(), {pay});
  ASSERT_TRUE(node.ReceiveBlock(a2).ok());
  EXPECT_EQ(node.mempool().size(), 0u);

  // Rival branch from a1: three coinbase-only blocks win at height 4.
  std::vector<Block> branch;
  BlockHash prev = a1.hash();
  for (std::uint64_t h = 2; h <= 4; ++h) {
    branch.emplace_back(
        h, prev,
        std::vector<BitcoinTransaction>{
            BitcoinTransaction::Coinbase("RivalPk", kBlockReward, h)});
    prev = branch.back().hash();
  }
  auto side = node.AcceptBlock(branch[0]);
  ASSERT_TRUE(side.ok());
  ASSERT_EQ(side->kind, ChainUpdate::Kind::kSideChain);
  auto update = node.AcceptBlock(branch[1]);  // Height 3 beats the tip at 2.
  ASSERT_TRUE(update.ok()) << update.status();
  ASSERT_EQ(update->kind, ChainUpdate::Kind::kReorged);
  auto extended = node.AcceptBlock(branch[2]);
  ASSERT_TRUE(extended.ok());
  ASSERT_EQ(extended->kind, ChainUpdate::Kind::kExtendedTip);

  // Alice's payment was rolled back; its funding coinbase (a1) is still
  // active, so the node re-injects it as pending.
  EXPECT_FALSE(node.chain().ContainsTransaction(pay.txid()));
  EXPECT_EQ(node.mempool().size(), 1u);
  EXPECT_TRUE(node.mempool().Contains(pay.txid()));
}

TEST_F(MempoolTest, StatsCountRows) {
  BitcoinTransaction pay =
      Payment(alice_utxo_, "AlicePk", kBlockReward, "BobPk", kCoin);
  ASSERT_TRUE(mempool_.Add(chain_, pay).ok());
  const ChainStats stats = mempool_.Stats();
  EXPECT_EQ(stats.transactions, 1u);
  EXPECT_EQ(stats.inputs, 1u);
  EXPECT_EQ(stats.outputs, 2u);
}

}  // namespace
}  // namespace bitcoin
}  // namespace bcdb
