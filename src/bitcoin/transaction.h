#ifndef BCDB_BITCOIN_TRANSACTION_H_
#define BCDB_BITCOIN_TRANSACTION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/hash.h"
#include "util/status.h"

namespace bcdb {
namespace bitcoin {

/// Amounts are integer satoshis; 1 bitcoin = 10^8 satoshi.
using Satoshi = std::int64_t;
inline constexpr Satoshi kCoin = 100'000'000;

/// The most any amount, or any sum of amounts, may be: the 21 million coin
/// supply. Bounding every amount and every sum by it keeps fee arithmetic
/// far from int64 overflow.
inline constexpr Satoshi kMaxMoney = 21'000'000 * kCoin;

/// Adds `amount` to `*total`. False when `amount` is negative or the sum
/// overflows or exceeds kMaxMoney (`*total` is then meaningless).
bool AddAmount(Satoshi amount, Satoshi* total);

/// Compact 63-bit transaction id (derived from the SHA-256 of the
/// serialized transaction; stored as the txId / prevTxId / newTxId columns
/// of the relational schema).
using TxId = std::int64_t;

/// Reference to the `index`-th output (1-based, matching the paper's `ser`
/// column) of transaction `txid`.
struct OutPoint {
  TxId txid = 0;
  std::int32_t index = 0;

  bool operator==(const OutPoint& other) const {
    return txid == other.txid && index == other.index;
  }
  bool operator<(const OutPoint& other) const {
    return txid != other.txid ? txid < other.txid : index < other.index;
  }
};

struct OutPointHash {
  std::size_t operator()(const OutPoint& p) const {
    std::size_t seed = std::hash<std::int64_t>{}(p.txid);
    HashCombineValue(seed, p.index);
    return seed;
  }
};

/// A transaction output: an amount locked to a public key.
struct TxOutput {
  std::string pubkey;
  Satoshi amount = 0;
};

/// A transaction input: fully consumes a previous output, presenting the
/// owner's public key, the consumed amount, and a signature.
struct TxInput {
  OutPoint prev;
  std::string pubkey;
  Satoshi amount = 0;
  std::string signature;
};

/// The deterministic stand-in for a cryptographic signature by the holder of
/// `pubkey` ("U1Pk" signs as "U1Sig", following the paper's Figure 2).
std::string SignatureFor(const std::string& pubkey);

/// A Bitcoin-style transaction: a many-to-many transfer that fully spends
/// its inputs and redistributes them to its outputs. Immutable once built;
/// the txid is the truncated SHA-256 of the serialization.
class BitcoinTransaction {
 public:
  /// Builds a regular transaction. Inputs must carry correct signatures for
  /// chain validation to accept it (use SignatureFor).
  BitcoinTransaction(std::vector<TxInput> inputs, std::vector<TxOutput> outputs);

  /// A coinbase transaction (no inputs) minting `reward` to `miner_pubkey`.
  /// `height` salts the serialization so equal-looking coinbases at
  /// different heights get distinct txids.
  static BitcoinTransaction Coinbase(const std::string& miner_pubkey,
                                     Satoshi reward, std::uint64_t height);

  TxId txid() const { return txid_; }
  const std::vector<TxInput>& inputs() const { return inputs_; }
  const std::vector<TxOutput>& outputs() const { return outputs_; }
  bool is_coinbase() const { return inputs_.empty(); }

  /// Totals and fee wrap instead of overflowing; they are exact for every
  /// transaction CheckAmounts accepts.
  Satoshi InputTotal() const;
  Satoshi OutputTotal() const;
  /// InputTotal - OutputTotal; the miner's incentive. 0 for coinbases.
  Satoshi Fee() const;

  /// Deterministic canonical serialization (txid preimage).
  std::string Serialize() const;

 private:
  std::vector<TxInput> inputs_;
  std::vector<TxOutput> outputs_;
  std::uint64_t salt_ = 0;  // Coinbase height salt.
  TxId txid_ = 0;
};

/// The amount rule of both validators (Blockchain::ValidateTransaction and
/// Mempool::Add; the chain also applies it to coinbases): every input and
/// output amount lies in [0, kMaxMoney], and so do the input total and the
/// output total.
Status CheckAmounts(const BitcoinTransaction& tx);

}  // namespace bitcoin
}  // namespace bcdb

#endif  // BCDB_BITCOIN_TRANSACTION_H_
