#include "bitcoin/block_file.h"

#include <cstdio>
#include <string_view>
#include <utility>

#include "util/bytes.h"

namespace bcdb {
namespace bitcoin {
namespace {

constexpr std::uint32_t kBlockEntryKind = 1;
constexpr std::uint32_t kTxEntryKind = 2;

// Smallest encodings, for bounding untrusted element counts (a count the
// remaining bytes cannot hold reads as truncation): an input is
// txid + index + empty pubkey + amount + empty signature, an output is an
// empty pubkey + amount, and a transaction is txid + coinbase flag + two
// zero counts.
constexpr std::size_t kMinInputBytes = 8 + 4 + 4 + 8 + 4;
constexpr std::size_t kMinOutputBytes = 4 + 8;
constexpr std::size_t kMinTransactionBytes = 8 + 1 + 4 + 4;

void EncodeTransactionInto(std::string* out, const BitcoinTransaction& tx) {
  AppendI64(out, tx.txid());
  AppendU8(out, tx.is_coinbase() ? 1 : 0);
  AppendU32(out, static_cast<std::uint32_t>(tx.inputs().size()));
  for (const TxInput& input : tx.inputs()) {
    AppendI64(out, input.prev.txid);
    AppendI32(out, input.prev.index);
    AppendBytes(out, input.pubkey);
    AppendI64(out, input.amount);
    AppendBytes(out, input.signature);
  }
  AppendU32(out, static_cast<std::uint32_t>(tx.outputs().size()));
  for (const TxOutput& output : tx.outputs()) {
    AppendBytes(out, output.pubkey);
    AppendI64(out, output.amount);
  }
}

StatusOr<BitcoinTransaction> DecodeTransactionFrom(ByteReader* in,
                                                   std::uint64_t salt) {
  std::int64_t stored_txid = 0;
  std::uint8_t is_coinbase = 0;
  std::uint32_t num_inputs = 0;
  if (!in->ReadI64(&stored_txid) || !in->ReadU8(&is_coinbase) ||
      !in->ReadCount(kMinInputBytes, &num_inputs)) {
    return Status::InvalidArgument("block file: truncated transaction");
  }
  std::vector<TxInput> inputs;
  inputs.reserve(num_inputs);
  for (std::uint32_t i = 0; i < num_inputs; ++i) {
    TxInput input;
    std::string pubkey, signature;
    if (!in->ReadI64(&input.prev.txid) || !in->ReadI32(&input.prev.index) ||
        !in->ReadString(&pubkey) || !in->ReadI64(&input.amount) ||
        !in->ReadString(&signature)) {
      return Status::InvalidArgument("block file: truncated input");
    }
    input.pubkey = std::move(pubkey);
    input.signature = std::move(signature);
    inputs.push_back(std::move(input));
  }
  std::uint32_t num_outputs = 0;
  if (!in->ReadCount(kMinOutputBytes, &num_outputs)) {
    return Status::InvalidArgument("block file: truncated transaction");
  }
  std::vector<TxOutput> outputs;
  outputs.reserve(num_outputs);
  for (std::uint32_t o = 0; o < num_outputs; ++o) {
    TxOutput output;
    std::string pubkey;
    if (!in->ReadString(&pubkey) || !in->ReadI64(&output.amount)) {
      return Status::InvalidArgument("block file: truncated output");
    }
    output.pubkey = std::move(pubkey);
    outputs.push_back(std::move(output));
  }

  // Rebuild from content; coinbases re-derive their height salt, everything
  // else serializes identically by construction.
  BitcoinTransaction tx =
      is_coinbase
          ? BitcoinTransaction::Coinbase(
                outputs.empty() ? std::string() : outputs[0].pubkey,
                outputs.empty() ? 0 : outputs[0].amount, salt)
          : BitcoinTransaction(std::move(inputs), std::move(outputs));
  if (is_coinbase && (num_inputs != 0 || num_outputs != 1)) {
    return Status::InvalidArgument(
        "block file: coinbase must have no inputs and one output");
  }
  if (tx.txid() != stored_txid) {
    return Status::InvalidArgument(
        "block file: transaction id mismatch (content was altered)");
  }
  return tx;
}

/// Reads the whole file into a string (block files are bounded by the
/// export they came from; no need to stream).
StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string data;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::Internal("read error on " + path);
  return data;
}

Status WriteFramedFile(const std::string& path, std::uint32_t kind,
                       const std::vector<std::string>& payloads) {
  std::string data;
  for (const std::string& payload : payloads) {
    AppendU32(&data, kBlockFileMagic);
    AppendU32(&data, static_cast<std::uint32_t>(payload.size() + 4));
    AppendU32(&data, kind);
    data.append(payload);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot create " + path);
  const bool failed =
      std::fwrite(data.data(), 1, data.size(), f) != data.size();
  if (std::fclose(f) != 0 || failed) {
    return Status::Internal("write error on " + path);
  }
  return Status::OK();
}

StatusOr<std::vector<std::string>> ReadFramedFile(const std::string& path,
                                                  std::uint32_t kind) {
  StatusOr<std::string> data = ReadFile(path);
  if (!data.ok()) return data.status();
  std::vector<std::string> payloads;
  ByteReader in(*data);
  while (!in.exhausted()) {
    std::uint32_t magic = 0;
    if (!in.ReadU32(&magic)) {
      return Status::InvalidArgument(path + ": truncated entry header");
    }
    if (magic == 0) {
      // Preallocation padding after the last entry: the rest must be zeros.
      std::uint8_t byte = 0;
      while (in.ReadU8(&byte)) {
        if (byte != 0) {
          return Status::InvalidArgument(path + ": garbage after entries");
        }
      }
      break;
    }
    if (magic != kBlockFileMagic) {
      return Status::InvalidArgument(path + ": bad network magic");
    }
    std::uint32_t size = 0;
    std::uint32_t entry_kind = 0;
    if (!in.ReadU32(&size) || size < 4 || !in.ReadU32(&entry_kind)) {
      return Status::InvalidArgument(path + ": truncated entry");
    }
    if (entry_kind != kind) {
      return Status::InvalidArgument(path + ": unexpected entry kind");
    }
    std::string_view payload;
    if (!in.ReadRaw(size - 4, &payload)) {
      return Status::InvalidArgument(path + ": truncated entry payload");
    }
    payloads.emplace_back(payload);
  }
  return payloads;
}

}  // namespace

std::string EncodeBlockPayload(const Block& block) {
  std::string out;
  AppendU64(&out, block.height());
  AppendI64(&out, block.prev_hash());
  AppendI64(&out, block.hash());
  AppendU32(&out, static_cast<std::uint32_t>(block.transactions().size()));
  for (const BitcoinTransaction& tx : block.transactions()) {
    EncodeTransactionInto(&out, tx);
  }
  return out;
}

StatusOr<Block> DecodeBlockPayload(std::string_view payload) {
  ByteReader in(payload);
  std::uint64_t height = 0;
  std::int64_t prev_hash = 0;
  std::int64_t stored_hash = 0;
  std::uint32_t num_txs = 0;
  if (!in.ReadU64(&height) || !in.ReadI64(&prev_hash) ||
      !in.ReadI64(&stored_hash) ||
      !in.ReadCount(kMinTransactionBytes, &num_txs)) {
    return Status::InvalidArgument("block file: truncated block header");
  }
  std::vector<BitcoinTransaction> transactions;
  transactions.reserve(num_txs);
  for (std::uint32_t i = 0; i < num_txs; ++i) {
    // Coinbase salt == block height (BitcoinTransaction::Coinbase).
    StatusOr<BitcoinTransaction> tx = DecodeTransactionFrom(&in, height);
    if (!tx.ok()) return tx.status();
    transactions.push_back(std::move(*tx));
  }
  if (!in.exhausted()) {
    return Status::InvalidArgument("block file: trailing bytes in block");
  }
  Block block(height, prev_hash, std::move(transactions));
  if (block.hash() != stored_hash) {
    return Status::InvalidArgument(
        "block file: block hash mismatch (content was altered)");
  }
  return block;
}

std::string EncodeTransactionPayload(const BitcoinTransaction& tx) {
  std::string out;
  EncodeTransactionInto(&out, tx);
  return out;
}

StatusOr<BitcoinTransaction> DecodeTransactionPayload(
    std::string_view payload) {
  ByteReader in(payload);
  // Mempool transactions are never coinbases, so the salt is irrelevant.
  StatusOr<BitcoinTransaction> tx = DecodeTransactionFrom(&in, 0);
  if (!tx.ok()) return tx.status();
  if (!in.exhausted()) {
    return Status::InvalidArgument("block file: trailing bytes after tx");
  }
  return tx;
}

Status WriteBlockFile(const std::string& path,
                      const std::vector<Block>& blocks) {
  std::vector<std::string> payloads;
  payloads.reserve(blocks.size());
  for (const Block& block : blocks) {
    payloads.push_back(EncodeBlockPayload(block));
  }
  return WriteFramedFile(path, kBlockEntryKind, payloads);
}

StatusOr<std::vector<Block>> ReadBlockFile(const std::string& path) {
  StatusOr<std::vector<std::string>> payloads =
      ReadFramedFile(path, kBlockEntryKind);
  if (!payloads.ok()) return payloads.status();
  std::vector<Block> blocks;
  blocks.reserve(payloads->size());
  for (const std::string& payload : *payloads) {
    StatusOr<Block> block = DecodeBlockPayload(payload);
    if (!block.ok()) return block.status();
    blocks.push_back(std::move(*block));
  }
  return blocks;
}

Status WriteMempoolFile(const std::string& path,
                        const std::vector<BitcoinTransaction>& transactions) {
  std::vector<std::string> payloads;
  payloads.reserve(transactions.size());
  for (const BitcoinTransaction& tx : transactions) {
    payloads.push_back(EncodeTransactionPayload(tx));
  }
  return WriteFramedFile(path, kTxEntryKind, payloads);
}

StatusOr<std::vector<BitcoinTransaction>> ReadMempoolFile(
    const std::string& path) {
  StatusOr<std::vector<std::string>> payloads =
      ReadFramedFile(path, kTxEntryKind);
  if (!payloads.ok()) return payloads.status();
  std::vector<BitcoinTransaction> transactions;
  transactions.reserve(payloads->size());
  for (const std::string& payload : *payloads) {
    StatusOr<BitcoinTransaction> tx = DecodeTransactionPayload(payload);
    if (!tx.ok()) return tx.status();
    transactions.push_back(std::move(*tx));
  }
  return transactions;
}

Status ExportNode(const SimulatedNode& node, const std::string& block_path,
                  const std::string& mempool_path) {
  const std::vector<Block>& chain = node.chain().blocks();
  // blocks[0] is the implicit genesis: never exported, never replayed.
  std::vector<Block> blocks(chain.begin() + (chain.empty() ? 0 : 1),
                            chain.end());
  BCDB_RETURN_IF_ERROR(WriteBlockFile(block_path, blocks));
  if (!mempool_path.empty()) {
    BCDB_RETURN_IF_ERROR(
        WriteMempoolFile(mempool_path, node.mempool().transactions()));
  }
  return Status::OK();
}

StatusOr<SimulatedNode> LoadNode(const std::vector<std::string>& block_paths,
                                 const std::string& mempool_path) {
  SimulatedNode node;
  for (const std::string& path : block_paths) {
    StatusOr<std::vector<Block>> blocks = ReadBlockFile(path);
    if (!blocks.ok()) return blocks.status();
    for (const Block& block : *blocks) {
      BCDB_RETURN_IF_ERROR(node.ReceiveBlock(block));
    }
  }
  if (!mempool_path.empty()) {
    StatusOr<std::vector<BitcoinTransaction>> txs =
        ReadMempoolFile(mempool_path);
    if (!txs.ok()) return txs.status();
    for (BitcoinTransaction& tx : *txs) {
      BCDB_RETURN_IF_ERROR(node.SubmitTransaction(std::move(tx)));
    }
  }
  return node;
}

}  // namespace bitcoin
}  // namespace bcdb
