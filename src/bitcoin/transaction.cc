#include "bitcoin/transaction.h"

#include "bitcoin/sha256.h"

namespace bcdb {
namespace bitcoin {

std::string SignatureFor(const std::string& pubkey) {
  if (pubkey.size() >= 2 && pubkey.substr(pubkey.size() - 2) == "Pk") {
    return pubkey.substr(0, pubkey.size() - 2) + "Sig";
  }
  return pubkey + "Sig";
}

BitcoinTransaction::BitcoinTransaction(std::vector<TxInput> inputs,
                                       std::vector<TxOutput> outputs)
    : inputs_(std::move(inputs)), outputs_(std::move(outputs)) {
  txid_ = Sha256::ToId63(Sha256::Hash(Serialize()));
}

BitcoinTransaction BitcoinTransaction::Coinbase(const std::string& miner_pubkey,
                                                Satoshi reward,
                                                std::uint64_t height) {
  BitcoinTransaction tx({}, {TxOutput{miner_pubkey, reward}});
  tx.salt_ = height;
  tx.txid_ = Sha256::ToId63(Sha256::Hash(tx.Serialize()));
  return tx;
}

namespace {

/// Sum of the items' amounts, wrapping on overflow (defined behaviour,
/// unlike a signed `+=`).
template <typename Items>
Satoshi WrappingTotal(const Items& items) {
  Satoshi total = 0;
  for (const auto& item : items) {
    __builtin_add_overflow(total, item.amount, &total);
  }
  return total;
}

/// Whether every amount and the running total stay within [0, kMaxMoney].
template <typename Items>
bool AmountsInRange(const Items& items) {
  Satoshi total = 0;
  for (const auto& item : items) {
    if (!AddAmount(item.amount, &total)) return false;
  }
  return true;
}

}  // namespace

bool AddAmount(Satoshi amount, Satoshi* total) {
  return amount >= 0 && !__builtin_add_overflow(*total, amount, total) &&
         *total <= kMaxMoney;
}

Status CheckAmounts(const BitcoinTransaction& tx) {
  if (!AmountsInRange(tx.inputs())) {
    return Status::ConstraintViolation(
        "input amount or input total outside [0, kMaxMoney]");
  }
  if (!AmountsInRange(tx.outputs())) {
    return Status::ConstraintViolation(
        "output amount or output total outside [0, kMaxMoney]");
  }
  return Status::OK();
}

Satoshi BitcoinTransaction::InputTotal() const {
  return WrappingTotal(inputs_);
}

Satoshi BitcoinTransaction::OutputTotal() const {
  return WrappingTotal(outputs_);
}

Satoshi BitcoinTransaction::Fee() const {
  Satoshi fee = 0;
  if (!is_coinbase()) __builtin_sub_overflow(InputTotal(), OutputTotal(), &fee);
  return fee;
}

std::string BitcoinTransaction::Serialize() const {
  std::string data = "tx:v1;salt=" + std::to_string(salt_) + ";in=";
  for (const TxInput& input : inputs_) {
    data += std::to_string(input.prev.txid) + ":" +
            std::to_string(input.prev.index) + ":" + input.pubkey + ":" +
            std::to_string(input.amount) + ":" + input.signature + ",";
  }
  data += ";out=";
  for (const TxOutput& output : outputs_) {
    data += output.pubkey + ":" + std::to_string(output.amount) + ",";
  }
  return data;
}

}  // namespace bitcoin
}  // namespace bcdb
