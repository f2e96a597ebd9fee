// Bitcoin-shaped block files: framing, content-addressed integrity, the
// export → load → rebuild pipeline, and durable dataset ingest.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bitcoin/block_file.h"
#include "bitcoin/chain.h"
#include "bitcoin/generator.h"
#include "bitcoin/to_relational.h"
#include "storage/durable_store.h"
#include "storage_test_util.h"
#include "util/bytes.h"

namespace bcdb {
namespace {

using bitcoin::BitcoinTransaction;
using bitcoin::Block;
using bitcoin::BuildBlockchainDatabase;
using bitcoin::DecodeBlockPayload;
using bitcoin::DecodeTransactionPayload;
using bitcoin::EncodeBlockPayload;
using bitcoin::ExportNode;
using bitcoin::GeneratedWorkload;
using bitcoin::GeneratorParams;
using bitcoin::GenerateWorkload;
using bitcoin::LoadNode;
using bitcoin::MakeBitcoinCatalog;
using bitcoin::MakeBitcoinConstraints;
using bitcoin::ReadBlockFile;
using bitcoin::SimulatedNode;
using bitcoin::WriteBlockFile;
using storage::DurableStore;
using storage_test::ExpectEquivalent;
using storage_test::FlipByte;
using storage_test::ScratchDir;

std::string FileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
}

GeneratorParams SmallParams() {
  GeneratorParams params;
  params.seed = 7;
  params.num_blocks = 6;
  params.num_users = 6;
  params.num_pending = 8;
  params.num_contradictions = 1;
  params.pending_chain_depth = 2;
  params.star_size = 2;
  params.rich_payments = 2;
  return params;
}

TEST(BlockFileTest, ExportLoadRoundTripsChainAndMempool) {
  StatusOr<GeneratedWorkload> workload = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload.ok()) << workload.status();
  const SimulatedNode& node = workload->node;

  ScratchDir dir;
  const std::string blocks = dir.Sub("blk00000.dat");
  const std::string mempool = dir.Sub("mempool.dat");
  ASSERT_TRUE(ExportNode(node, blocks, mempool).ok());

  StatusOr<SimulatedNode> loaded = LoadNode({blocks}, mempool);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->chain().blocks().size(), node.chain().blocks().size());
  EXPECT_EQ(loaded->chain().tip().hash(), node.chain().tip().hash());
  EXPECT_EQ(loaded->mempool().transactions().size(),
            node.mempool().transactions().size());

  // The relational image — the actual experimental input — is id-for-id
  // identical, so datasets rebuilt from block files feed the engines the
  // exact same D = (R, I, T).
  StatusOr<BlockchainDatabase> want = BuildBlockchainDatabase(node);
  ASSERT_TRUE(want.ok()) << want.status();
  StatusOr<BlockchainDatabase> got = BuildBlockchainDatabase(*loaded);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectEquivalent(*want, *got);
}

TEST(BlockFileTest, ExportIsDeterministic) {
  StatusOr<GeneratedWorkload> workload = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload.ok());

  ScratchDir dir;
  ASSERT_TRUE(
      ExportNode(workload->node, dir.Sub("a.dat"), dir.Sub("a.mem")).ok());
  ASSERT_TRUE(
      ExportNode(workload->node, dir.Sub("b.dat"), dir.Sub("b.mem")).ok());
  EXPECT_FALSE(FileBytes(dir.Sub("a.dat")).empty());
  EXPECT_FALSE(FileBytes(dir.Sub("a.mem")).empty());
  EXPECT_EQ(FileBytes(dir.Sub("a.dat")), FileBytes(dir.Sub("b.dat")));
  EXPECT_EQ(FileBytes(dir.Sub("a.mem")), FileBytes(dir.Sub("b.mem")));
}

TEST(BlockFileTest, ExportLoadExportReproducesBytes) {
  StatusOr<GeneratedWorkload> workload = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload.ok());

  ScratchDir dir;
  ASSERT_TRUE(
      ExportNode(workload->node, dir.Sub("a.dat"), dir.Sub("a.mem")).ok());
  StatusOr<SimulatedNode> loaded =
      LoadNode({dir.Sub("a.dat")}, dir.Sub("a.mem"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(ExportNode(*loaded, dir.Sub("b.dat"), dir.Sub("b.mem")).ok());
  EXPECT_EQ(FileBytes(dir.Sub("a.dat")), FileBytes(dir.Sub("b.dat")));
  EXPECT_EQ(FileBytes(dir.Sub("a.mem")), FileBytes(dir.Sub("b.mem")));
}

TEST(BlockFileTest, EmptyNodeRoundTrips) {
  ScratchDir dir;
  ASSERT_TRUE(ExportNode(SimulatedNode(), dir.Sub("blk.dat"),
                         dir.Sub("mempool.dat"))
                  .ok());
  StatusOr<SimulatedNode> loaded =
      LoadNode({dir.Sub("blk.dat")}, dir.Sub("mempool.dat"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->chain().height(), 0u);
  EXPECT_EQ(loaded->mempool().size(), 0u);
}

TEST(BlockFileTest, LoadValidatesLikeALiveChain) {
  StatusOr<GeneratedWorkload> workload = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload.ok());
  const std::vector<Block>& chain = workload->node.chain().blocks();
  ASSERT_GT(chain.size(), 3u);

  ScratchDir dir;
  // Blocks out of order: replay must reject the broken linkage.
  const std::string path = dir.Sub("disordered.dat");
  ASSERT_TRUE(
      WriteBlockFile(path, {chain[2], chain[1], chain[3]}).ok());
  EXPECT_FALSE(LoadNode({path}).ok());
}

TEST(BlockFileTest, OverflowingOutputsFailWithStatus) {
  // A spend whose two outputs sit near INT64_MAX: summing them unchecked is
  // signed-overflow UB. Loading must fail with a Status instead.
  const BitcoinTransaction coinbase =
      BitcoinTransaction::Coinbase("AlicePk", bitcoin::kBlockReward, 1);
  const Block first(1, bitcoin::Blockchain().tip().hash(), {coinbase});
  constexpr bitcoin::Satoshi kHuge =
      std::numeric_limits<bitcoin::Satoshi>::max() - 1;
  const BitcoinTransaction spend(
      {bitcoin::TxInput{bitcoin::OutPoint{coinbase.txid(), 1}, "AlicePk",
                        bitcoin::kBlockReward,
                        bitcoin::SignatureFor("AlicePk")}},
      {bitcoin::TxOutput{"BobPk", kHuge}, bitcoin::TxOutput{"BobPk", kHuge}});
  const Block second(
      2, first.hash(),
      {BitcoinTransaction::Coinbase("MinerPk", bitcoin::kBlockReward, 2),
       spend});

  ScratchDir dir;
  const std::string path = dir.Sub("overflow.dat");
  ASSERT_TRUE(WriteBlockFile(path, {first, second}).ok());
  StatusOr<SimulatedNode> loaded = LoadNode({path});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kConstraintViolation);
}

TEST(BlockFileTest, LoadSpansMultipleFilesInOrder) {
  StatusOr<GeneratedWorkload> workload = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload.ok());
  const SimulatedNode& node = workload->node;
  const std::vector<Block>& chain = node.chain().blocks();
  const std::size_t mid = chain.size() / 2;

  ScratchDir dir;
  const std::string first = dir.Sub("blk00000.dat");
  const std::string second = dir.Sub("blk00001.dat");
  ASSERT_TRUE(WriteBlockFile(
                  first, std::vector<Block>(chain.begin() + 1,
                                            chain.begin() + mid))
                  .ok());
  ASSERT_TRUE(WriteBlockFile(
                  second, std::vector<Block>(chain.begin() + mid, chain.end()))
                  .ok());
  StatusOr<SimulatedNode> loaded = LoadNode({first, second});
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->chain().tip().hash(), node.chain().tip().hash());
}

TEST(BlockFileTest, DetectsCorruptionByRecomputedIds) {
  StatusOr<GeneratedWorkload> workload = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload.ok());
  const SimulatedNode& node = workload->node;

  ScratchDir dir;
  const std::string path = dir.Sub("blk.dat");
  ASSERT_TRUE(ExportNode(node, path, "").ok());
  const std::uint64_t size = storage_test::FileSize(path);

  // A flip anywhere breaks either the framing, a recomputed txid/block
  // hash, or chain validation.
  for (std::uint64_t offset = 3; offset < size; offset += size / 11) {
    const std::string corrupt = dir.Sub("corrupt.dat");
    std::filesystem::copy_file(path, corrupt,
                               std::filesystem::copy_options::overwrite_existing);
    FlipByte(corrupt, offset);
    bool failed = false;
    StatusOr<std::vector<Block>> blocks = ReadBlockFile(corrupt);
    if (!blocks.ok()) {
      failed = true;
    } else {
      SimulatedNode replayed;
      for (const Block& block : *blocks) {
        if (!replayed.ReceiveBlock(block).ok()) {
          failed = true;
          break;
        }
      }
    }
    EXPECT_TRUE(failed) << "undetected corruption at offset " << offset;
  }
}

TEST(BlockFileTest, ToleratesPreallocationPadding) {
  StatusOr<GeneratedWorkload> workload = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload.ok());

  ScratchDir dir;
  const std::string path = dir.Sub("padded.dat");
  ASSERT_TRUE(ExportNode(workload->node, path, "").ok());
  storage_test::AppendBytesToFile(path, std::string(64, '\0'));
  EXPECT_TRUE(ReadBlockFile(path).ok());

  storage_test::AppendBytesToFile(path, "junk");
  EXPECT_FALSE(ReadBlockFile(path).ok());
}

TEST(BlockFileTest, BlockPayloadRejectsTrailingBytes) {
  StatusOr<GeneratedWorkload> workload = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload.ok());
  const Block& block = workload->node.chain().blocks()[1];
  const std::string payload = EncodeBlockPayload(block);
  StatusOr<Block> decoded = DecodeBlockPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->hash(), block.hash());
  EXPECT_FALSE(DecodeBlockPayload(payload + "x").ok());
  EXPECT_FALSE(
      DecodeBlockPayload(std::string_view(payload.data(), payload.size() - 1))
          .ok());
}

// A count read from the payload must be bounded by the bytes left to encode
// its elements before anything is reserved: each of these payloads claims
// 2^31 - 1 elements in a few bytes, which used to abort with bad_alloc.
constexpr std::uint32_t kHugeCount = 0x7fffffff;

TEST(BlockFileTest, HugeInputCountIsRejected) {
  std::string payload;
  AppendI64(&payload, 42);  // txid
  AppendU8(&payload, 0);    // not a coinbase
  AppendU32(&payload, kHugeCount);
  ASSERT_EQ(payload.size(), 13u);
  StatusOr<BitcoinTransaction> tx = DecodeTransactionPayload(payload);
  ASSERT_FALSE(tx.ok());
  EXPECT_EQ(tx.status().code(), StatusCode::kInvalidArgument);
}

TEST(BlockFileTest, HugeOutputCountIsRejected) {
  std::string payload;
  AppendI64(&payload, 42);
  AppendU8(&payload, 0);
  AppendU32(&payload, 0);  // no inputs
  AppendU32(&payload, kHugeCount);
  StatusOr<BitcoinTransaction> tx = DecodeTransactionPayload(payload);
  ASSERT_FALSE(tx.ok());
  EXPECT_EQ(tx.status().code(), StatusCode::kInvalidArgument);
}

TEST(BlockFileTest, HugeTransactionCountIsRejected) {
  std::string payload;
  AppendU64(&payload, 1);   // height
  AppendI64(&payload, 7);   // prev hash
  AppendI64(&payload, 9);   // hash
  AppendU32(&payload, kHugeCount);
  StatusOr<Block> block = DecodeBlockPayload(payload);
  ASSERT_FALSE(block.ok());
  EXPECT_EQ(block.status().code(), StatusCode::kInvalidArgument);
}

TEST(BlockFileTest, DurableIngestRecoversIdForId) {
  // Block files → node → durable BuildBlockchainDatabase → crash →
  // recover: the dataset pipeline with persistence in the loop.
  StatusOr<GeneratedWorkload> workload = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload.ok());
  const SimulatedNode& node = workload->node;

  ScratchDir dir;
  const std::string store_dir = dir.Sub("store");
  std::optional<BlockchainDatabase> want;
  {
    auto store = DurableStore::Open(store_dir, MakeBitcoinCatalog());
    ASSERT_TRUE(store.ok()) << store.status();
    // Recover positions a fresh store at seq 0; the empty bootstrap
    // database is discarded in favor of the ingest-built one (whose
    // mutation seqs also start at 0, so the WAL matches it exactly).
    auto bootstrap = (*store)->Recover(ConstraintSet{});
    ASSERT_TRUE(bootstrap.ok()) << bootstrap.status();
    ASSERT_EQ(bootstrap->version(), 0u);
    auto built = BuildBlockchainDatabase(node, store->get());
    ASSERT_TRUE(built.ok()) << built.status();
    want.emplace(std::move(*built));
    ASSERT_TRUE((*store)->Sync().ok());
    ASSERT_TRUE((*store)->status().ok());
  }
  auto store = DurableStore::Open(store_dir, MakeBitcoinCatalog());
  ASSERT_TRUE(store.ok());
  auto constraints = MakeBitcoinConstraints((*store)->catalog());
  ASSERT_TRUE(constraints.ok());
  auto recovered = (*store)->Recover(std::move(*constraints));
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectEquivalent(*want, *recovered);
}

}  // namespace
}  // namespace bcdb
