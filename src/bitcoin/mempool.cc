#include "bitcoin/mempool.h"

#include "bitcoin/script.h"

#include <unordered_set>

namespace bcdb {
namespace bitcoin {

Status Mempool::Add(const Blockchain& chain, BitcoinTransaction tx) {
  if (by_txid_.count(tx.txid()) > 0) {
    return Status::AlreadyExists("transaction already in mempool");
  }
  if (chain.ContainsTransaction(tx.txid())) {
    return Status::AlreadyExists("transaction already confirmed");
  }
  if (tx.is_coinbase()) {
    return Status::InvalidArgument("coinbases cannot be broadcast");
  }
  // Resolve each referenced output against the chain's UTXO set or the
  // outputs of mempool transactions (dependency chains).
  std::unordered_set<OutPoint, OutPointHash> spent_here;
  for (const TxInput& input : tx.inputs()) {
    if (!spent_here.insert(input.prev).second) {
      return Status::ConstraintViolation(
          "transaction spends the same output twice");
    }
    const Utxo* resolved = nullptr;
    Utxo from_mempool;
    auto it = chain.utxos().find(input.prev);
    if (it != chain.utxos().end()) {
      resolved = &it->second;
    } else if (const BitcoinTransaction* parent = Find(input.prev.txid)) {
      const std::size_t index = static_cast<std::size_t>(input.prev.index);
      if (index < 1 || index > parent->outputs().size()) {
        return Status::NotFound("referenced output serial out of range");
      }
      from_mempool = Utxo{parent->outputs()[index - 1].pubkey,
                          parent->outputs()[index - 1].amount};
      resolved = &from_mempool;
    } else {
      return Status::NotFound(
          "input references an output that is neither unspent on the chain "
          "nor created by a mempool transaction");
    }
    if (resolved->pubkey != input.pubkey || resolved->amount != input.amount) {
      return Status::ConstraintViolation(
          "input pubkey/amount does not match the referenced output");
    }
    if (!Script::Parse(input.pubkey).SatisfiedBy(input.signature)) {
      return Status::ConstraintViolation(
          "witness does not satisfy the output script of " + input.pubkey);
    }
  }
  BCDB_RETURN_IF_ERROR(CheckAmounts(tx));
  if (tx.Fee() < 0) {
    return Status::ConstraintViolation("outputs exceed inputs");
  }
  by_txid_.emplace(tx.txid(), transactions_.size());
  transactions_.push_back(std::move(tx));
  return Status::OK();
}

const BitcoinTransaction* Mempool::Find(TxId txid) const {
  auto it = by_txid_.find(txid);
  return it == by_txid_.end() ? nullptr : &transactions_[it->second];
}

std::vector<std::pair<std::size_t, std::size_t>> Mempool::ConflictPairs()
    const {
  std::unordered_map<OutPoint, std::vector<std::size_t>, OutPointHash>
      spenders;
  for (std::size_t i = 0; i < transactions_.size(); ++i) {
    for (const TxInput& input : transactions_[i].inputs()) {
      spenders[input.prev].push_back(i);
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const auto& [outpoint, txs] : spenders) {
    for (std::size_t i = 0; i < txs.size(); ++i) {
      for (std::size_t j = i + 1; j < txs.size(); ++j) {
        pairs.emplace_back(txs[i], txs[j]);
      }
    }
  }
  return pairs;
}

std::vector<TxId> Mempool::EvictSet(const Blockchain& chain,
                                    const std::unordered_set<TxId>& victims) {
  // Iteratively drop the designated victims, transactions confirmed on the
  // active chain, and transactions whose inputs can no longer be satisfied
  // by chain UTXOs or surviving mempool parents (a dropped parent
  // invalidates its dependants transitively).
  std::vector<BitcoinTransaction> survivors = std::move(transactions_);
  transactions_.clear();
  by_txid_.clear();
  std::vector<TxId> evicted;
  bool changed = true;
  while (changed) {
    changed = false;
    std::unordered_set<TxId> surviving_ids;
    for (const BitcoinTransaction& tx : survivors) {
      surviving_ids.insert(tx.txid());
    }
    std::vector<BitcoinTransaction> next;
    next.reserve(survivors.size());
    for (BitcoinTransaction& tx : survivors) {
      bool drop = victims.count(tx.txid()) > 0 ||
                  chain.ContainsTransaction(tx.txid());
      if (!drop) {
        for (const TxInput& input : tx.inputs()) {
          const bool on_chain = chain.utxos().count(input.prev) > 0;
          const bool from_mempool = surviving_ids.count(input.prev.txid) > 0;
          if (!on_chain && !from_mempool) {
            drop = true;
            break;
          }
        }
      }
      if (drop) {
        evicted.push_back(tx.txid());
        changed = true;
        continue;
      }
      next.push_back(std::move(tx));
    }
    survivors = std::move(next);
  }

  for (BitcoinTransaction& tx : survivors) {
    by_txid_.emplace(tx.txid(), transactions_.size());
    transactions_.push_back(std::move(tx));
  }
  return evicted;
}

std::size_t Mempool::RemoveConfirmedAndInvalid(const Blockchain& chain,
                                               const Block& block) {
  // `block` is already appended when this runs, so the chain's confirmation
  // index covers its transactions; the parameter is kept for callers that
  // want to assert as much.
  std::unordered_set<TxId> confirmed;
  for (const BitcoinTransaction& tx : block.transactions()) {
    confirmed.insert(tx.txid());
  }
  return EvictSet(chain, confirmed).size();
}

std::vector<TxId> Mempool::Resync(const Blockchain& chain) {
  return EvictSet(chain, {});
}

std::vector<TxId> Mempool::EvictToCapacity(const Blockchain& chain,
                                           std::size_t max_transactions) {
  std::vector<TxId> evicted;
  while (transactions_.size() > max_transactions) {
    const BitcoinTransaction* victim = nullptr;
    for (const BitcoinTransaction& tx : transactions_) {
      if (victim == nullptr || tx.Fee() < victim->Fee() ||
          (tx.Fee() == victim->Fee() && tx.txid() < victim->txid())) {
        victim = &tx;
      }
    }
    std::vector<TxId> round = EvictSet(chain, {victim->txid()});
    evicted.insert(evicted.end(), round.begin(), round.end());
  }
  return evicted;
}

StatusOr<std::vector<TxId>> Mempool::ReplaceByFee(const Blockchain& chain,
                                                  BitcoinTransaction tx) {
  std::unordered_set<OutPoint, OutPointHash> claimed;
  for (const TxInput& input : tx.inputs()) claimed.insert(input.prev);

  std::unordered_set<TxId> conflicts;
  Satoshi displaced_fees = 0;
  for (const BitcoinTransaction& resident : transactions_) {
    for (const TxInput& input : resident.inputs()) {
      if (claimed.count(input.prev) > 0) {
        if (conflicts.insert(resident.txid()).second &&
            !AddAmount(resident.Fee(), &displaced_fees)) {
          // No replacement can pay more than kMaxMoney.
          return Status::ConstraintViolation(
              "displaced fees exceed kMaxMoney");
        }
        break;
      }
    }
  }
  if (!conflicts.empty() && tx.Fee() <= displaced_fees) {
    return Status::ConstraintViolation(
        "replacement fee " + std::to_string(tx.Fee()) +
        " does not exceed the " + std::to_string(displaced_fees) +
        " satoshi it displaces");
  }
  // Evict, then admit; a failed admission (e.g. the replacement depended on
  // an output of an evicted dependant) restores the pre-call pool.
  std::vector<BitcoinTransaction> pool_snapshot = transactions_;
  std::unordered_map<TxId, std::size_t> index_snapshot = by_txid_;
  std::vector<TxId> evicted = EvictSet(chain, conflicts);
  Status admitted = Add(chain, std::move(tx));
  if (!admitted.ok()) {
    transactions_ = std::move(pool_snapshot);
    by_txid_ = std::move(index_snapshot);
    return admitted;
  }
  return evicted;
}

ChainStats Mempool::Stats() const {
  ChainStats stats;
  for (const BitcoinTransaction& tx : transactions_) {
    stats.transactions += 1;
    stats.inputs += tx.inputs().size();
    stats.outputs += tx.outputs().size();
  }
  return stats;
}

}  // namespace bitcoin
}  // namespace bcdb
