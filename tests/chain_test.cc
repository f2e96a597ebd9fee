#include <gtest/gtest.h>

#include <limits>

#include "bitcoin/chain.h"

namespace bcdb {
namespace bitcoin {
namespace {

BitcoinTransaction Payment(const OutPoint& src, const std::string& from,
                           Satoshi in_amount, const std::string& to,
                           Satoshi amount, Satoshi fee) {
  std::vector<TxOutput> outputs{TxOutput{to, amount}};
  const Satoshi change = in_amount - amount - fee;
  if (change > 0) outputs.push_back(TxOutput{from, change});
  return BitcoinTransaction(
      {TxInput{src, from, in_amount, SignatureFor(from)}}, outputs);
}

class ChainTest : public ::testing::Test {
 protected:
  /// Mines a block paying the subsidy to `miner`.
  BitcoinTransaction MineCoinbaseTo(const std::string& miner) {
    BitcoinTransaction cb =
        BitcoinTransaction::Coinbase(miner, kBlockReward, chain_.height() + 1);
    EXPECT_TRUE(chain_.MineAndAppend({cb}).ok());
    return cb;
  }

  Blockchain chain_;
};

TEST_F(ChainTest, GenesisOnly) {
  EXPECT_EQ(chain_.height(), 0u);
  EXPECT_TRUE(chain_.utxos().empty());
  EXPECT_EQ(chain_.Stats().blocks, 1u);
}

TEST_F(ChainTest, CoinbaseCreatesUtxo) {
  BitcoinTransaction cb = MineCoinbaseTo("AlicePk");
  EXPECT_EQ(chain_.height(), 1u);
  ASSERT_EQ(chain_.utxos().size(), 1u);
  const auto it = chain_.utxos().find(OutPoint{cb.txid(), 1});
  ASSERT_NE(it, chain_.utxos().end());
  EXPECT_EQ(it->second.pubkey, "AlicePk");
  EXPECT_EQ(it->second.amount, kBlockReward);
  EXPECT_TRUE(chain_.ContainsTransaction(cb.txid()));
}

TEST_F(ChainTest, SpendMovesFunds) {
  BitcoinTransaction cb = MineCoinbaseTo("AlicePk");
  BitcoinTransaction pay = Payment(OutPoint{cb.txid(), 1}, "AlicePk",
                                   kBlockReward, "BobPk", kCoin, 1000);
  ASSERT_TRUE(chain_.MineAndAppend({pay}).ok());
  // Alice's coinbase output is spent; Bob's and Alice's change exist.
  EXPECT_EQ(chain_.utxos().count(OutPoint{cb.txid(), 1}), 0u);
  EXPECT_EQ(chain_.utxos().count(OutPoint{pay.txid(), 1}), 1u);
  EXPECT_EQ(chain_.utxos().count(OutPoint{pay.txid(), 2}), 1u);
}

TEST_F(ChainTest, RejectsDoubleSpendAcrossBlocks) {
  BitcoinTransaction cb = MineCoinbaseTo("AlicePk");
  BitcoinTransaction pay1 = Payment(OutPoint{cb.txid(), 1}, "AlicePk",
                                    kBlockReward, "BobPk", kCoin, 1000);
  ASSERT_TRUE(chain_.MineAndAppend({pay1}).ok());
  BitcoinTransaction pay2 = Payment(OutPoint{cb.txid(), 1}, "AlicePk",
                                    kBlockReward, "CarolPk", kCoin, 1000);
  EXPECT_EQ(chain_.MineAndAppend({pay2}).code(), StatusCode::kNotFound);
}

TEST_F(ChainTest, RejectsDoubleSpendWithinBlock) {
  BitcoinTransaction cb = MineCoinbaseTo("AlicePk");
  BitcoinTransaction pay1 = Payment(OutPoint{cb.txid(), 1}, "AlicePk",
                                    kBlockReward, "BobPk", kCoin, 1000);
  BitcoinTransaction pay2 = Payment(OutPoint{cb.txid(), 1}, "AlicePk",
                                    kBlockReward, "CarolPk", kCoin, 1000);
  EXPECT_FALSE(chain_.MineAndAppend({pay1, pay2}).ok());
}

TEST_F(ChainTest, AllowsSpendingWithinSameBlock) {
  BitcoinTransaction cb = MineCoinbaseTo("AlicePk");
  BitcoinTransaction pay1 = Payment(OutPoint{cb.txid(), 1}, "AlicePk",
                                    kBlockReward, "BobPk", kCoin, 1000);
  BitcoinTransaction pay2 = Payment(OutPoint{pay1.txid(), 1}, "BobPk", kCoin,
                                    "CarolPk", kCoin / 2, 1000);
  EXPECT_TRUE(chain_.MineAndAppend({pay1, pay2}).ok());
}

TEST_F(ChainTest, RejectsWrongOwnerOrAmount) {
  BitcoinTransaction cb = MineCoinbaseTo("AlicePk");
  // Wrong claimed amount.
  BitcoinTransaction bad_amount = Payment(
      OutPoint{cb.txid(), 1}, "AlicePk", kBlockReward - 5, "BobPk", kCoin, 0);
  EXPECT_FALSE(chain_.MineAndAppend({bad_amount}).ok());
  // Wrong claimed owner.
  BitcoinTransaction bad_owner = Payment(OutPoint{cb.txid(), 1}, "EvePk",
                                         kBlockReward, "BobPk", kCoin, 1000);
  EXPECT_FALSE(chain_.MineAndAppend({bad_owner}).ok());
}

TEST_F(ChainTest, RejectsBadSignature) {
  BitcoinTransaction cb = MineCoinbaseTo("AlicePk");
  BitcoinTransaction forged(
      {TxInput{OutPoint{cb.txid(), 1}, "AlicePk", kBlockReward, "EveSig"}},
      {TxOutput{"EvePk", kBlockReward}});
  EXPECT_FALSE(chain_.MineAndAppend({forged}).ok());
}

TEST_F(ChainTest, RejectsOverspend) {
  BitcoinTransaction cb = MineCoinbaseTo("AlicePk");
  BitcoinTransaction overspend(
      {TxInput{OutPoint{cb.txid(), 1}, "AlicePk", kBlockReward,
               SignatureFor("AlicePk")}},
      {TxOutput{"BobPk", kBlockReward + 1}});
  EXPECT_FALSE(chain_.MineAndAppend({overspend}).ok());
}

TEST_F(ChainTest, RejectsExcessiveCoinbase) {
  BitcoinTransaction greedy = BitcoinTransaction::Coinbase(
      "MinerPk", kBlockReward + 1, chain_.height() + 1);
  EXPECT_EQ(chain_.MineAndAppend({greedy}).code(),
            StatusCode::kConstraintViolation);
}

TEST_F(ChainTest, RejectsOverflowingCoinbase) {
  // Two outputs near INT64_MAX: their int64 sum wraps negative, which an
  // unchecked total would have waved through under the subsidy cap.
  constexpr Satoshi kHuge = std::numeric_limits<Satoshi>::max() - 1;
  BitcoinTransaction overflowing({}, {TxOutput{"MinerPk", kHuge},
                                      TxOutput{"MinerPk", kHuge}});
  ASSERT_TRUE(overflowing.is_coinbase());
  EXPECT_EQ(chain_.MineAndAppend({overflowing}).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(chain_.height(), 0u);
}

TEST_F(ChainTest, RejectsNegativeOutputAmount) {
  // A negative output would inflate the fee the coinbase may claim.
  BitcoinTransaction cb = MineCoinbaseTo("AlicePk");
  BitcoinTransaction negative(
      {TxInput{OutPoint{cb.txid(), 1}, "AlicePk", kBlockReward,
               SignatureFor("AlicePk")}},
      {TxOutput{"BobPk", kCoin}, TxOutput{"AlicePk", -kCoin}});
  EXPECT_EQ(chain_.MineAndAppend({negative}).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(chain_.height(), 1u);
}

TEST_F(ChainTest, CoinbaseMayCollectFees) {
  BitcoinTransaction cb = MineCoinbaseTo("AlicePk");
  BitcoinTransaction pay = Payment(OutPoint{cb.txid(), 1}, "AlicePk",
                                   kBlockReward, "BobPk", kCoin, 5000);
  BitcoinTransaction cb2 = BitcoinTransaction::Coinbase(
      "MinerPk", kBlockReward + 5000, chain_.height() + 1);
  EXPECT_TRUE(chain_.MineAndAppend({cb2, pay}).ok());
}

TEST_F(ChainTest, RejectsMisplacedCoinbase) {
  BitcoinTransaction cb = MineCoinbaseTo("AlicePk");
  BitcoinTransaction pay = Payment(OutPoint{cb.txid(), 1}, "AlicePk",
                                   kBlockReward, "BobPk", kCoin, 1000);
  BitcoinTransaction cb2 =
      BitcoinTransaction::Coinbase("MinerPk", kBlockReward, 2);
  EXPECT_FALSE(chain_.MineAndAppend({pay, cb2}).ok());
}

TEST_F(ChainTest, RejectsBadLinkage) {
  Block detached(5, 12345, {});
  EXPECT_FALSE(chain_.AppendBlock(detached).ok());
  Block wrong_height(2, chain_.tip().hash(), {});
  EXPECT_FALSE(chain_.AppendBlock(wrong_height).ok());
}

TEST_F(ChainTest, StatsAccumulate) {
  MineCoinbaseTo("AlicePk");
  MineCoinbaseTo("BobPk");
  const ChainStats stats = chain_.Stats();
  EXPECT_EQ(stats.blocks, 3u);  // Genesis + 2.
  EXPECT_EQ(stats.transactions, 2u);
  EXPECT_EQ(stats.inputs, 0u);
  EXPECT_EQ(stats.outputs, 2u);
}

TEST_F(ChainTest, AcceptBlockExtendsTipAndRejectsMalformedOffers) {
  BitcoinTransaction cb =
      BitcoinTransaction::Coinbase("AlicePk", kBlockReward, 1);
  const Block block(1, chain_.tip().hash(), {cb});
  auto update = chain_.AcceptBlock(block);
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_EQ(update->kind, ChainUpdate::Kind::kExtendedTip);
  EXPECT_EQ(update->connected_blocks, 1u);
  EXPECT_TRUE(update->disconnected.empty());
  EXPECT_EQ(chain_.height(), 1u);

  // Re-offering a known block, linking to an unknown parent, and a height
  // that does not follow the parent are all typed rejections.
  EXPECT_EQ(chain_.AcceptBlock(block).status().code(),
            StatusCode::kAlreadyExists);
  const Block orphan(
      2, /*prev_hash=*/0x1234abcd,
      {BitcoinTransaction::Coinbase("BobPk", kBlockReward, 2)});
  EXPECT_EQ(chain_.AcceptBlock(orphan).status().code(), StatusCode::kNotFound);
  const Block skewed(
      7, chain_.tip().hash(),
      {BitcoinTransaction::Coinbase("BobPk", kBlockReward, 7)});
  EXPECT_EQ(chain_.AcceptBlock(skewed).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ChainTest, EqualLengthCompetitorStaysSideChain) {
  MineCoinbaseTo("AlicePk");
  const Block rival(
      1, chain_.blocks()[0].hash(),
      {BitcoinTransaction::Coinbase("RivalPk", kBlockReward, 1)});
  auto update = chain_.AcceptBlock(rival);
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_EQ(update->kind, ChainUpdate::Kind::kSideChain);
  // First-seen wins: the active chain is untouched but the rival is known.
  EXPECT_EQ(chain_.height(), 1u);
  EXPECT_NE(chain_.tip().hash(), rival.hash());
  EXPECT_NE(chain_.FindBlock(rival.hash()), nullptr);
  EXPECT_EQ(chain_.utxos().count(OutPoint{rival.transactions()[0].txid(), 1}),
            0u);
}

TEST_F(ChainTest, LongerBranchReorgsAndReportsDisconnections) {
  // Active: A1 (coinbase -> Alice), A2 (coinbase + Alice pays Bob).
  BitcoinTransaction cb_a1 = MineCoinbaseTo("AlicePk");
  BitcoinTransaction cb_a2 =
      BitcoinTransaction::Coinbase("AlicePk", kBlockReward, 2);
  BitcoinTransaction pay = Payment(OutPoint{cb_a1.txid(), 1}, "AlicePk",
                                   kBlockReward, "BobPk", kCoin, 0);
  ASSERT_TRUE(chain_.MineAndAppend({cb_a2, pay}).ok());
  ASSERT_TRUE(chain_.ContainsTransaction(pay.txid()));

  // Rival branch from genesis: three coinbase-only blocks.
  std::vector<Block> branch;
  BlockHash prev = chain_.blocks()[0].hash();
  for (std::uint64_t h = 1; h <= 3; ++h) {
    branch.emplace_back(
        h, prev,
        std::vector<BitcoinTransaction>{
            BitcoinTransaction::Coinbase("RivalPk", kBlockReward, h)});
    prev = branch.back().hash();
  }
  auto side1 = chain_.AcceptBlock(branch[0]);
  ASSERT_TRUE(side1.ok());
  EXPECT_EQ(side1->kind, ChainUpdate::Kind::kSideChain);
  auto side2 = chain_.AcceptBlock(branch[1]);
  ASSERT_TRUE(side2.ok());
  EXPECT_EQ(side2->kind, ChainUpdate::Kind::kSideChain);

  auto reorg = chain_.AcceptBlock(branch[2]);
  ASSERT_TRUE(reorg.ok()) << reorg.status();
  EXPECT_EQ(reorg->kind, ChainUpdate::Kind::kReorged);
  EXPECT_EQ(reorg->disconnected_blocks, 2u);
  EXPECT_EQ(reorg->connected_blocks, 3u);
  // Disconnected transactions come back in block order, coinbases included.
  ASSERT_EQ(reorg->disconnected.size(), 3u);
  EXPECT_EQ(reorg->disconnected[0].txid(), cb_a1.txid());
  EXPECT_EQ(reorg->disconnected[1].txid(), cb_a2.txid());
  EXPECT_EQ(reorg->disconnected[2].txid(), pay.txid());

  // The node now follows the rival branch: rolled-back confirmations are
  // gone and the UTXO set is the branch's.
  EXPECT_EQ(chain_.height(), 3u);
  EXPECT_EQ(chain_.tip().hash(), branch[2].hash());
  EXPECT_FALSE(chain_.ContainsTransaction(pay.txid()));
  EXPECT_FALSE(chain_.ContainsTransaction(cb_a1.txid()));
  EXPECT_EQ(chain_.utxos().size(), 3u);
  for (const Block& block : branch) {
    EXPECT_TRUE(chain_.ContainsTransaction(block.transactions()[0].txid()));
    EXPECT_EQ(
        chain_.utxos().count(OutPoint{block.transactions()[0].txid(), 1}),
        1u);
  }
}

TEST_F(ChainTest, InvalidLongerBranchLeavesActiveChainUntouched) {
  BitcoinTransaction cb_a1 = MineCoinbaseTo("AlicePk");
  // Rival branch whose second block overspends a nonexistent output; it is
  // only fully validated at adoption time, which must fail atomically.
  const BitcoinTransaction rival_cb =
      BitcoinTransaction::Coinbase("RivalPk", kBlockReward, 1);
  const Block b1(1, chain_.blocks()[0].hash(), {rival_cb});
  const BitcoinTransaction bogus =
      Payment(OutPoint{0x77777, 1}, "NoonePk", kCoin, "BobPk", kCoin, 0);
  const Block b2(2, b1.hash(), {bogus});
  ASSERT_TRUE(chain_.AcceptBlock(b1).ok());
  EXPECT_FALSE(chain_.AcceptBlock(b2).ok());
  EXPECT_EQ(chain_.height(), 1u);
  EXPECT_EQ(chain_.tip().hash(), chain_.blocks()[1].hash());
  EXPECT_TRUE(chain_.ContainsTransaction(cb_a1.txid()));
  EXPECT_EQ(chain_.utxos().count(OutPoint{cb_a1.txid(), 1}), 1u);
}

TEST_F(ChainTest, ReorgReconfirmsSharedTransactions) {
  // The rival branch confirms the same payment the active chain had: after
  // the switch it must still count as confirmed (replay-from-genesis sees
  // it fresh on the candidate chain).
  BitcoinTransaction cb_a1 = MineCoinbaseTo("AlicePk");
  BitcoinTransaction pay = Payment(OutPoint{cb_a1.txid(), 1}, "AlicePk",
                                   kBlockReward, "BobPk", kCoin, 0);
  ASSERT_TRUE(chain_.MineAndAppend({pay}).ok());

  std::vector<Block> branch;
  branch.emplace_back(2, chain_.blocks()[1].hash(),
                      std::vector<BitcoinTransaction>{
                          BitcoinTransaction::Coinbase("RivalPk",
                                                       kBlockReward, 2),
                          pay});
  branch.emplace_back(3, branch.back().hash(),
                      std::vector<BitcoinTransaction>{
                          BitcoinTransaction::Coinbase("RivalPk",
                                                       kBlockReward, 3)});
  ASSERT_TRUE(chain_.AcceptBlock(branch[0]).ok());
  auto reorg = chain_.AcceptBlock(branch[1]);
  ASSERT_TRUE(reorg.ok()) << reorg.status();
  EXPECT_EQ(reorg->kind, ChainUpdate::Kind::kReorged);
  // The payment was disconnected with its old block but re-confirmed on
  // the new branch.
  EXPECT_TRUE(chain_.ContainsTransaction(pay.txid()));
  EXPECT_TRUE(chain_.ContainsTransaction(cb_a1.txid()));
  EXPECT_EQ(chain_.utxos().count(OutPoint{pay.txid(), 1}), 1u);
}

}  // namespace
}  // namespace bitcoin
}  // namespace bcdb
