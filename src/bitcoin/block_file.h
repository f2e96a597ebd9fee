#ifndef BCDB_BITCOIN_BLOCK_FILE_H_
#define BCDB_BITCOIN_BLOCK_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bitcoin/block.h"
#include "bitcoin/node.h"
#include "bitcoin/transaction.h"
#include "util/status.h"

namespace bcdb {
namespace bitcoin {

/// Bitcoin-shaped binary block files (the `blk*.dat` idiom): a flat
/// sequence of framed entries
///
///   entry := network_magic u32 | size u32 | payload (size bytes)
///
/// where each payload is one binary-encoded block (or, in mempool files,
/// one transaction). As on real nodes, a run of zero bytes after the last
/// entry is treated as preallocation padding and ends the scan; anything
/// else trailing is corruption.
///
/// Payloads carry the content needed to *rebuild* blocks and transactions
/// — heights, previous-output references, pubkeys, amounts, signatures —
/// plus the writer's block hash and txids, which the reader recomputes
/// from content and cross-checks. Loading replays everything through full
/// chain/mempool validation (SimulatedNode::ReceiveBlock / Mempool::Add),
/// so a block file that would not validate as a live history fails to
/// load.
inline constexpr std::uint32_t kBlockFileMagic = 0xD9B4BEF9u;

/// Serializes one block / transaction payload (no framing).
std::string EncodeBlockPayload(const Block& block);
std::string EncodeTransactionPayload(const BitcoinTransaction& tx);

/// Decodes and verifies one payload (recomputed ids must match the stored
/// ones).
StatusOr<Block> DecodeBlockPayload(std::string_view payload);
StatusOr<BitcoinTransaction> DecodeTransactionPayload(std::string_view payload);

/// Writes `blocks` as one framed block file. The genesis block is the
/// chain's implicit origin and is never written; pass blocks from height 1
/// up (ExportNode does this for you).
Status WriteBlockFile(const std::string& path, const std::vector<Block>& blocks);

/// Reads every framed block payload in `path`, verifying framing and ids.
StatusOr<std::vector<Block>> ReadBlockFile(const std::string& path);

/// Mempool files: the same framing, one transaction per entry.
Status WriteMempoolFile(const std::string& path,
                        const std::vector<BitcoinTransaction>& transactions);
StatusOr<std::vector<BitcoinTransaction>> ReadMempoolFile(
    const std::string& path);

/// Exports `node` as `<block_path>` plus (if non-empty) `<mempool_path>`.
Status ExportNode(const SimulatedNode& node, const std::string& block_path,
                  const std::string& mempool_path);

/// Rebuilds a validating node by replaying block files in order through
/// ReceiveBlock, then broadcasting the mempool file (if non-empty) through
/// SubmitTransaction. Files must jointly form a contiguous chain from
/// height 1.
StatusOr<SimulatedNode> LoadNode(const std::vector<std::string>& block_paths,
                                 const std::string& mempool_path = "");

}  // namespace bitcoin
}  // namespace bcdb

#endif  // BCDB_BITCOIN_BLOCK_FILE_H_
