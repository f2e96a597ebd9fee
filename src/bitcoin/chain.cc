#include "bitcoin/chain.h"

#include "bitcoin/script.h"

#include <algorithm>
#include <unordered_set>

namespace bcdb {
namespace bitcoin {

Blockchain::Blockchain() {
  blocks_.emplace_back(/*height=*/0, /*prev_hash=*/0,
                       std::vector<BitcoinTransaction>{});
  block_tree_.emplace(blocks_.back().hash(), blocks_.back());
  stats_.blocks = 1;
}

Status Blockchain::ValidateTransaction(
    const BitcoinTransaction& tx,
    const std::unordered_map<OutPoint, Utxo, OutPointHash>& available) {
  std::unordered_set<OutPoint, OutPointHash> spent_here;
  for (const TxInput& input : tx.inputs()) {
    if (!spent_here.insert(input.prev).second) {
      return Status::ConstraintViolation(
          "transaction spends the same output twice");
    }
    auto it = available.find(input.prev);
    if (it == available.end()) {
      return Status::NotFound("input spends a missing or spent output (txid " +
                              std::to_string(input.prev.txid) + ", ser " +
                              std::to_string(input.prev.index) + ")");
    }
    if (it->second.pubkey != input.pubkey ||
        it->second.amount != input.amount) {
      return Status::ConstraintViolation(
          "input pubkey/amount does not match the referenced output");
    }
    if (!Script::Parse(input.pubkey).SatisfiedBy(input.signature)) {
      return Status::ConstraintViolation(
          "witness does not satisfy the output script of " + input.pubkey);
    }
  }
  BCDB_RETURN_IF_ERROR(CheckAmounts(tx));
  if (!tx.is_coinbase() && tx.Fee() < 0) {
    return Status::ConstraintViolation("outputs exceed inputs");
  }
  return Status::OK();
}

Status Blockchain::AppendBlock(const Block& block) {
  if (block.prev_hash() != tip().hash()) {
    return Status::InvalidArgument("block does not extend the current tip");
  }
  if (block.height() != height() + 1) {
    return Status::InvalidArgument("block height must be tip height + 1");
  }

  // Validate transactions against the UTXO set, letting later transactions
  // spend outputs created earlier in the same block.
  std::unordered_map<OutPoint, Utxo, OutPointHash> available = utxos_;
  Satoshi fees = 0;
  const BitcoinTransaction* coinbase = nullptr;
  for (std::size_t i = 0; i < block.transactions().size(); ++i) {
    const BitcoinTransaction& tx = block.transactions()[i];
    if (tx.is_coinbase()) {
      if (i != 0) {
        return Status::ConstraintViolation(
            "coinbase must be the first transaction of the block");
      }
      BCDB_RETURN_IF_ERROR(CheckAmounts(tx));
      coinbase = &tx;
    } else {
      BCDB_RETURN_IF_ERROR(ValidateTransaction(tx, available));
      if (!AddAmount(tx.Fee(), &fees)) {
        return Status::ConstraintViolation("block fees exceed kMaxMoney");
      }
    }
    if (confirmed_txids_.count(tx.txid()) > 0) {
      return Status::AlreadyExists("transaction " + std::to_string(tx.txid()) +
                                   " already confirmed");
    }
    // Apply: consume inputs, create outputs.
    for (const TxInput& input : tx.inputs()) available.erase(input.prev);
    for (std::size_t o = 0; o < tx.outputs().size(); ++o) {
      available[OutPoint{tx.txid(), static_cast<std::int32_t>(o + 1)}] =
          Utxo{tx.outputs()[o].pubkey, tx.outputs()[o].amount};
    }
  }
  if (coinbase != nullptr && coinbase->OutputTotal() > kBlockReward + fees) {
    return Status::ConstraintViolation(
        "coinbase claims more than subsidy plus fees");
  }

  // Commit.
  utxos_ = std::move(available);
  for (const BitcoinTransaction& tx : block.transactions()) {
    confirmed_txids_.emplace(tx.txid(), block.height());
    stats_.transactions += 1;
    stats_.inputs += tx.inputs().size();
    stats_.outputs += tx.outputs().size();
  }
  stats_.blocks += 1;
  blocks_.push_back(block);
  block_tree_.emplace(block.hash(), block);
  return Status::OK();
}

StatusOr<ChainUpdate> Blockchain::AcceptBlock(const Block& block) {
  if (block_tree_.count(block.hash()) > 0) {
    return Status::AlreadyExists("block already known");
  }
  if (block.prev_hash() == tip().hash()) {
    BCDB_RETURN_IF_ERROR(AppendBlock(block));
    ChainUpdate update;
    update.kind = ChainUpdate::Kind::kExtendedTip;
    update.connected_blocks = 1;
    return update;
  }

  const Block* parent = FindBlock(block.prev_hash());
  if (parent == nullptr) {
    return Status::NotFound("block's parent is unknown");
  }
  if (block.height() != parent->height() + 1) {
    return Status::InvalidArgument("block height must be parent height + 1");
  }

  // Collect the branch from the fork point (exclusive) down to `block`.
  // Every tracked block's ancestry is closed under block_tree_ (a block is
  // only admitted once its parent is known), so the walk always reaches the
  // active chain.
  std::vector<Block> branch{block};
  const Block* cursor = &block;
  while (!IsActive(cursor->prev_hash(), cursor->height() - 1)) {
    cursor = FindBlock(cursor->prev_hash());
    branch.push_back(*cursor);
  }
  std::reverse(branch.begin(), branch.end());
  const std::uint64_t fork_height = branch.front().height() - 1;

  if (block.height() <= height()) {
    // Not longer than the active chain: track it, change nothing.
    block_tree_.emplace(block.hash(), block);
    ChainUpdate update;
    update.kind = ChainUpdate::Kind::kSideChain;
    return update;
  }

  // Strictly longer: fully validate the candidate chain by replaying it from
  // genesis on a scratch instance. The shared prefix is already validated;
  // replaying it rebuilds the UTXO set the branch must be judged against
  // (and keeps re-confirmations of rolled-back transactions legal, since the
  // scratch chain never saw the abandoned suffix).
  Blockchain candidate;
  for (std::uint64_t h = 1; h <= fork_height; ++h) {
    Status replayed = candidate.AppendBlock(blocks_[h]);
    if (!replayed.ok()) {
      return Status::Internal("active chain prefix failed to replay: " +
                              replayed.message());
    }
  }
  for (const Block& b : branch) {
    Status applied = candidate.AppendBlock(b);
    if (!applied.ok()) {
      // Invalid branch: reject the new block and keep the active chain.
      return applied;
    }
  }

  ChainUpdate update;
  update.kind = ChainUpdate::Kind::kReorged;
  update.connected_blocks = branch.size();
  update.disconnected_blocks = height() - fork_height;
  for (std::uint64_t h = fork_height + 1; h < blocks_.size(); ++h) {
    for (const BitcoinTransaction& tx : blocks_[h].transactions()) {
      update.disconnected.push_back(tx);
    }
  }

  // Adopt the candidate's state; the abandoned suffix stays in the tree as a
  // side branch (a further reorg may return to it).
  block_tree_.emplace(block.hash(), block);
  blocks_ = std::move(candidate.blocks_);
  utxos_ = std::move(candidate.utxos_);
  confirmed_txids_ = std::move(candidate.confirmed_txids_);
  stats_ = candidate.stats_;
  return update;
}

Status Blockchain::MineAndAppend(std::vector<BitcoinTransaction> transactions) {
  Block block(height() + 1, tip().hash(), std::move(transactions));
  return AppendBlock(block);
}

}  // namespace bitcoin
}  // namespace bcdb
