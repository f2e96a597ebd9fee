// Input generator of the benchmark. Runs in its own process, before the
// measured node starts, so neither its time nor its memory is charged to
// the program under test.
//
//   perfbench_gen --base DIR --out DIR --seed N --window W --pool P
//                 --contradictions C --intervals I
//
// Generates the paper-default S200 Bitcoin workload (GenerateWorkload with
// the S200 parameters and generator seed) with W + P pending payments and C
// double spends. That part does not depend on --seed, so it is generated
// once into --base (the chain as a checkpointed store, the mempool and the
// landmarks as text) and reused. --seed selects the dataset the node sees:
// which pending payments form the window and in which order the rest
// arrive (each double-spend rival right behind its victim), plus the
// request order, the bound addresses and thresholds, and the interval
// script's choices. It writes:
//   DIR/store/     a DurableStore holding the chain R and the first W pending
//                  transactions (the node's pending window), checkpointed
//                  (the state of a node's store at rest);
//   DIR/inputs.tsv the arrival list (the other P transactions plus crafted
//                  replace-by-fee replacements), a script of I block
//                  intervals over it, the ad-hoc and aggregate request
//                  texts with their known verdicts, the stream's standing
//                  constraints and the fleet's registrations.
// The interval script is replayed here against a volatile copy of the
// database, so every mutation in it is known to succeed and every pending
// id in it is the id the node will see.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bitcoin/generator.h"
#include "bitcoin/to_relational.h"
#include "bitcoin/transaction.h"
#include "core/blockchain_db.h"
#include "storage/durable_store.h"
#include "workload/constraints.h"
#include "workload/datasets.h"

namespace {

using namespace bcdb;
using bitcoin::BitcoinTransaction;
using bitcoin::OutPoint;
using bitcoin::OutPointHash;
using bitcoin::Satoshi;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench_gen: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

/// splitmix64: the benchmark's own deterministic choices (request order,
/// eviction victims, thresholds).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }

 private:
  std::uint64_t state_;
};

std::string EncodeValue(const Value& v) {
  if (v.type() == ValueType::kInt) return "i" + std::to_string(v.AsInt());
  return "s" + v.AsString();
}

std::string EncodeTxn(const Transaction& txn) {
  std::string line = "txn\t" + txn.label();
  for (const Transaction::Item& item : txn.items()) {
    line += "\t" + item.relation + "\t" + std::to_string(item.tuple.arity());
    for (std::size_t i = 0; i < item.tuple.arity(); ++i) {
      line += "\t" + EncodeValue(item.tuple[i]);
    }
  }
  return line;
}

std::string Quote(const std::string& s) { return "'" + s + "'"; }

struct Args {
  std::string base;
  std::string out;
  std::uint64_t seed = 0;
  std::size_t window = 0;
  std::size_t pool = 0;
  std::size_t contradictions = 0;
  std::size_t intervals = 0;
};

/// Every flag is required: run.py states the whole dataset.
Args ParseArgs(int argc, char** argv) {
  Args args;
  std::set<std::string> seen;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    seen.insert(flag);
    if (flag == "--base") {
      args.base = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--window") {
      args.window = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--pool") {
      args.pool = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--contradictions") {
      args.contradictions = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--intervals") {
      args.intervals = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "perfbench_gen: unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  if (seen.size() != 7 || args.base.empty() || args.out.empty()) {
    std::fprintf(stderr,
                 "perfbench_gen: --base, --out, --seed, --window, --pool, "
                 "--contradictions and --intervals are all required\n");
    std::exit(2);
  }
  return args;
}

/// The mempool in arrival order: the designated landmark transactions first
/// (in broadcast order, so chain parents precede children), then the bulk
/// payments in a seed-chosen order, each double-spend rival directly behind
/// its victim. The generator broadcasts all rivals last; replaying that
/// order would put every conflict at the end of the stream.
std::vector<BitcoinTransaction> ArrivalOrder(
    const std::vector<BitcoinTransaction>& txs, std::size_t num_designated,
    Rng& rng) {
  // The first spender of an outpoint is the victim, later ones its rivals.
  std::vector<std::vector<std::size_t>> rivals_of(txs.size());
  std::vector<bool> is_rival(txs.size(), false);
  std::unordered_map<OutPoint, std::size_t, OutPointHash> first_spender;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    for (const bitcoin::TxInput& input : txs[i].inputs()) {
      auto [it, inserted] = first_spender.emplace(input.prev, i);
      if (!inserted && !is_rival[i]) {
        is_rival[i] = true;
        rivals_of[it->second].push_back(i);
      }
    }
  }
  std::vector<std::size_t> bulk;
  for (std::size_t i = num_designated; i < txs.size(); ++i) {
    if (!is_rival[i]) bulk.push_back(i);
  }
  for (std::size_t i = bulk.size(); i > 1; --i) {
    std::swap(bulk[i - 1], bulk[rng.Below(i)]);
  }
  std::vector<BitcoinTransaction> order(txs.begin(),
                                        txs.begin() + num_designated);
  order.reserve(txs.size());
  for (std::size_t i : bulk) {
    order.push_back(txs[i]);
    std::sort(rivals_of[i].begin(), rivals_of[i].end());
    for (std::size_t r : rivals_of[i]) order.push_back(txs[r]);
  }
  return order;
}

/// Replays the block-interval script against a volatile database and
/// records it. Ids are the database's PendingIds: the window occupies
/// [0, window), arrivals take the following slots in arrival order.
class IntervalScript {
 public:
  IntervalScript(BlockchainDatabase* db, std::size_t num_designated,
                 std::size_t window, std::uint64_t seed)
      : db_(db),
        num_designated_(num_designated),
        window_(window),
        rng_(seed ^ 0x5EED5C41Full) {}

  void AddInitial(const BitcoinTransaction& tx) { Register(tx); }

  /// Appends one interval; false once the arrival pool ran dry.
  bool Step(std::deque<BitcoinTransaction>& pool, std::string* ops,
            std::vector<Transaction>* arrivals) {
    constexpr std::size_t kArrivals = 16;
    constexpr std::size_t kEvictions = 2;
    constexpr std::size_t kReplacements = 1;
    constexpr std::size_t kMaxConfirms = 48;
    constexpr std::size_t kReorgEvery = 8;
    constexpr Satoshi kFeeBump = 10'000;
    if (pool.size() < kArrivals + 4) return false;
    ops->clear();
    fresh_.clear();
    const bool reorg = interval_ % kReorgEvery == kReorgEvery - 1 &&
                       !last_block_.empty();
    if (reorg) {
      for (auto it = last_block_.rbegin(); it != last_block_.rend(); ++it) {
        Check(db_->UnapplyPending(*it), "unapply");
        Emit(ops, "u" + std::to_string(*it));
        ++live_;
        fresh_.insert(*it);
        confirm_queue_.push_front(*it);
      }
      Check(db_->RemoveCurrent(bitcoin::kTxOut, Coinbase(last_coinbase_)),
            "remove coinbase");
      Emit(ops, "r" + std::to_string(last_coinbase_));
      last_block_.clear();
    }
    // Arrivals; a rival that follows its victim in the pool comes along.
    std::size_t arrived = 0;
    while (arrived < kArrivals ||
           (!pool.empty() && SpendsLive(pool.front()))) {
      if (pool.empty()) break;
      Arrive(pool.front(), ops, arrivals);
      pool.pop_front();
      ++arrived;
    }
    for (std::size_t r = 0; r < kReplacements; ++r) {
      const PendingId victim = PickLeaf(/*allow_rivals=*/false);
      if (victim == kNone) break;
      const bitcoin::TxInput input = txs_[victim].inputs()[0];
      const Satoshi fee = txs_[victim].Fee() + kFeeBump;
      if (input.amount <= fee) break;
      Discard(victim, ops);
      std::vector<bitcoin::TxInput> inputs{input};
      std::vector<bitcoin::TxOutput> outputs{bitcoin::TxOutput{
          "RbfRcpt" + std::to_string(replacements_++) + "Pk",
          input.amount - fee}};
      Arrive(BitcoinTransaction(std::move(inputs), std::move(outputs)), ops,
             arrivals);
    }
    for (std::size_t e = 0; e < kEvictions; ++e) {
      const PendingId victim = PickLeaf(/*allow_rivals=*/true);
      if (victim == kNone) break;
      Discard(victim, ops);
    }
    if (!reorg) {
      const std::size_t excess = live_ > window_ ? live_ - window_ : 0;
      const std::size_t target = std::min(kMaxConfirms, std::max<std::size_t>(excess, 4));
      last_block_.clear();
      std::deque<PendingId> skipped;
      while (last_block_.size() < target && !confirm_queue_.empty()) {
        const PendingId id = confirm_queue_.front();
        confirm_queue_.pop_front();
        if (!db_->IsPending(id)) continue;
        if (fresh_.count(id) > 0 || HasPendingParent(id)) {
          skipped.push_back(id);
          continue;
        }
        Check(db_->ApplyPending(id), "apply");
        Emit(ops, "p" + std::to_string(id));
        --live_;
        last_block_.push_back(id);
        // Rivals that lost the double spend leave the mempool for good.
        for (const bitcoin::TxInput& input : txs_[id].inputs()) {
          for (PendingId rival : spenders_[input.prev]) {
            if (rival != id && db_->IsPending(rival)) Discard(rival, ops);
          }
        }
      }
      for (auto it = skipped.rbegin(); it != skipped.rend(); ++it) {
        confirm_queue_.push_front(*it);
      }
      last_coinbase_ = next_coinbase_++;
      Check(db_->InsertCurrent(bitcoin::kTxOut, Coinbase(last_coinbase_)),
            "insert coinbase");
      Emit(ops, "c" + std::to_string(last_coinbase_));
    }
    ++interval_;
    return true;
  }

  std::size_t live() const { return live_; }

 private:
  static constexpr PendingId kNone = ~PendingId{0};

  static Tuple Coinbase(std::int64_t txid) {
    return Tuple({Value::Int(txid), Value::Int(1), Value::Str("BenchMinerPk"),
                  Value::Int(50 * bitcoin::kCoin)});
  }

  static void Check(const Status& status, const char* what) {
    if (!status.ok()) Die(std::string("interval script ") + what, status);
  }

  static void Emit(std::string* ops, const std::string& op) {
    if (!ops->empty()) *ops += ' ';
    *ops += op;
  }

  PendingId Register(const BitcoinTransaction& tx) {
    const PendingId id = txs_.size();
    txs_.push_back(tx);
    by_txid_[tx.txid()] = id;
    for (const bitcoin::TxInput& input : tx.inputs()) {
      spenders_[input.prev].push_back(id);
      auto parent = by_txid_.find(input.prev.txid);
      if (parent != by_txid_.end()) children_[parent->second].push_back(id);
    }
    if (id >= num_designated_) confirm_queue_.push_back(id);
    ++live_;
    return id;
  }

  bool SpendsLive(const BitcoinTransaction& tx) const {
    for (const bitcoin::TxInput& input : tx.inputs()) {
      auto it = spenders_.find(input.prev);
      if (it == spenders_.end()) continue;
      for (PendingId other : it->second) {
        if (db_->IsPending(other)) return true;
      }
    }
    return false;
  }

  void Arrive(const BitcoinTransaction& tx, std::string* ops,
              std::vector<Transaction>* arrivals) {
    Transaction relational = bitcoin::ToRelationalTransaction(tx);
    StatusOr<PendingId> id = db_->AddPending(relational);
    if (!id.ok()) Die("interval script add", id.status());
    const PendingId expected = Register(tx);
    if (*id != expected) {
      Die("interval script add", Status::Internal("unexpected pending id"));
    }
    fresh_.insert(expected);
    arrivals->push_back(std::move(relational));
    Emit(ops, "a");
  }

  bool HasPendingParent(PendingId id) const {
    for (const bitcoin::TxInput& input : txs_[id].inputs()) {
      auto parent = by_txid_.find(input.prev.txid);
      if (parent != by_txid_.end() && db_->IsPending(parent->second)) {
        return true;
      }
    }
    return false;
  }

  bool HasPendingChild(PendingId id) const {
    auto it = children_.find(id);
    if (it == children_.end()) return false;
    for (PendingId child : it->second) {
      if (db_->IsPending(child)) return true;
    }
    return false;
  }

  bool HasPendingRival(PendingId id) const {
    for (const bitcoin::TxInput& input : txs_[id].inputs()) {
      for (PendingId other : spenders_.at(input.prev)) {
        if (other != id && db_->IsPending(other)) return true;
      }
    }
    return false;
  }

  /// A random pending bulk transaction that nothing pending depends on and
  /// that did not arrive in this interval.
  PendingId PickLeaf(bool allow_rivals) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const PendingId id =
          num_designated_ + rng_.Below(txs_.size() - num_designated_);
      if (!db_->IsPending(id) || fresh_.count(id) > 0 || HasPendingChild(id) ||
          txs_[id].inputs().size() != 1 ||
          (!allow_rivals && HasPendingRival(id))) {
        continue;
      }
      return id;
    }
    return kNone;
  }

  void Discard(PendingId id, std::string* ops) {
    Check(db_->DiscardPending(id), "discard");
    Emit(ops, "d" + std::to_string(id));
    --live_;
  }

  BlockchainDatabase* db_;
  std::size_t num_designated_;
  std::size_t window_;
  Rng rng_;
  std::vector<BitcoinTransaction> txs_;
  std::unordered_map<bitcoin::TxId, PendingId> by_txid_;
  std::unordered_map<OutPoint, std::vector<PendingId>, OutPointHash> spenders_;
  std::unordered_map<PendingId, std::vector<PendingId>> children_;
  std::deque<PendingId> confirm_queue_;
  std::set<PendingId> fresh_;
  std::vector<PendingId> last_block_;
  std::int64_t next_coinbase_ = std::int64_t{1} << 62;
  std::int64_t last_coinbase_ = 0;
  std::size_t live_ = 0;
  std::size_t interval_ = 0;
  std::size_t replacements_ = 0;
};

/// Per-address totals: the facts the known verdicts rest on.
struct AddressBook {
  using Pair = std::pair<std::string, std::string>;
  std::map<std::string, Satoshi> confirmed_in;     // sum(a) of TxOut in R.
  std::map<std::string, Satoshi> safe_window_in;   // ... conflict-free window.
  std::map<std::string, Satoshi> ever_in;          // ... R and every pending.
  std::map<Pair, std::int64_t> confirmed_pays;     // Payments X -> Y in R.
  std::map<Pair, std::int64_t> safe_window_pays;
  std::map<Pair, std::int64_t> ever_pays;
  std::set<std::string> addresses;  // Every receiver in R and every pending.
  std::vector<std::string> users;
};

void CountPayments(const BitcoinTransaction& tx,
                   std::map<std::string, Satoshi>& in,
                   std::map<AddressBook::Pair, std::int64_t>& pays) {
  std::set<AddressBook::Pair> pairs;
  for (const bitcoin::TxOutput& out : tx.outputs()) {
    in[out.pubkey] += out.amount;
    for (const bitcoin::TxInput& input : tx.inputs()) {
      pairs.insert({input.pubkey, out.pubkey});
    }
  }
  for (const auto& pair : pairs) ++pays[pair];
}

/// `pending` is every generated mempool transaction in arrival order; the
/// first `window` are pending in the store, the rest arrive later.
AddressBook BuildAddressBook(
    const std::map<std::string, Satoshi>& confirmed_in,
    const std::map<AddressBook::Pair, std::int64_t>& confirmed_pays,
    const std::vector<BitcoinTransaction>& pending, std::size_t window) {
  AddressBook book;
  book.confirmed_in = confirmed_in;
  book.confirmed_pays = confirmed_pays;
  book.ever_in = book.confirmed_in;
  book.ever_pays = book.confirmed_pays;
  // A window payment in no double spend is in every maximal world, so the
  // totals over those alone are reachable in one possible world.
  std::unordered_map<OutPoint, int, OutPointHash> spends;
  for (std::size_t i = 0; i < window; ++i) {
    for (const bitcoin::TxInput& input : pending[i].inputs()) {
      ++spends[input.prev];
    }
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    CountPayments(pending[i], book.ever_in, book.ever_pays);
    bool conflicted = false;
    for (const bitcoin::TxInput& input : pending[i].inputs()) {
      conflicted = conflicted || spends[input.prev] > 1;
    }
    if (i < window && !conflicted) {
      CountPayments(pending[i], book.safe_window_in, book.safe_window_pays);
    }
  }
  for (const auto& [pk, total] : book.ever_in) {
    book.addresses.insert(pk);
    if (pk.rfind("U", 0) == 0) book.users.push_back(pk);
  }
  return book;
}

std::string HopText(const std::string& from, const std::string& to) {
  return "q() :- TxIn(pt, ps, " + from + ", a, ntx, g), TxOut(ntx, s, " + to +
         ", b)";
}

void WriteRequests(std::FILE* out, const bitcoin::WorkloadMetadata& meta,
                   const AddressBook& book, Rng& rng) {
  using namespace workload;
  const auto total = [](const std::map<std::string, Satoshi>& m,
                        const std::string& pk) {
    auto it = m.find(pk);
    return it == m.end() ? Satoshi{0} : it->second;
  };
  const std::string& user0 = book.users.at(0);

  // Ad hoc: the paper's qs, qp^i and qr^i families bound to landmarks, with
  // both verdicts. qs: the pending chain's and the star's recipients receive
  // only in pending transactions; absent addresses never receive. The path
  // and star constraints bound to QuietPk are false even over R ∪ T.
  struct Request {
    const char* expect;
    std::string text;
  };
  std::vector<Request> adhoc;
  const auto possible = [&](const DenialConstraint& q) {
    adhoc.push_back({"possible", q.ToString()});
  };
  const auto impossible = [&](const DenialConstraint& q) {
    adhoc.push_back({"impossible", q.ToString()});
  };
  for (std::size_t i = 1; i < meta.chain_pks.size(); ++i) {
    possible(MakeSimpleConstraint(meta.chain_pks[i]));
  }
  for (std::size_t k = 0; k < 8; ++k) {
    possible(MakeSimpleConstraint("StarRcpt" + std::to_string(k) + "Pk"));
    impossible(MakeSimpleConstraint("Absent" + std::to_string(k) + "Pk"));
  }
  for (std::size_t i = 2; i <= 7; ++i) {
    possible(PathUnsat(meta, i));
    impossible(PathSat(meta, i));
  }
  for (std::size_t i = 1; i <= 8; ++i) {
    possible(StarUnsat(meta, i));
    impossible(StarSat(meta, i));
  }
  for (std::size_t i = adhoc.size(); i > 1; --i) {
    std::swap(adhoc[i - 1], adhoc[rng.Below(i)]);
  }
  for (const Request& request : adhoc) {
    std::fprintf(out, "adhoc\t%s\t%s\n", request.expect, request.text.c_str());
  }

  // Aggregates: thresholds strictly above what R alone holds and at most
  // what the conflict-free window payments add, so every check is a
  // "possible" that neither the R nor the R ∪ T pre-check settles: the
  // Naive clique search decides it. Half are qa sums, half q4 counts,
  // alternating, so every seed asks the same mix.
  constexpr std::size_t kAggregatesPerFamily = 8;
  std::vector<std::string> sums;
  std::vector<std::string> counts;
  for (const auto& [pk, pending] : book.safe_window_in) {
    if (pk.rfind("U", 0) != 0 || pending < 2) continue;
    const Satoshi threshold =
        total(book.confirmed_in, pk) + 1 +
        static_cast<Satoshi>(rng.Next() % static_cast<std::uint64_t>(pending - 1));
    sums.push_back(MakeAggregateConstraint(pk, threshold).ToString());
  }
  for (const auto& [pair, pending] : book.safe_window_pays) {
    if (pair.first.rfind("U", 0) != 0 || pair.second.rfind("U", 0) != 0 ||
        pair.first == pair.second) {
      continue;
    }
    auto it = book.confirmed_pays.find(pair);
    const std::int64_t base = it == book.confirmed_pays.end() ? 0 : it->second;
    const std::int64_t threshold =
        base + 1 + static_cast<std::int64_t>(rng.Next() % pending);
    counts.push_back(
        MakeDistinctTransfersConstraint(pair.first, pair.second, threshold)
            .ToString());
  }
  for (std::vector<std::string>* family : {&sums, &counts}) {
    for (std::size_t i = family->size(); i > 1; --i) {
      std::swap((*family)[i - 1], (*family)[rng.Below(i)]);
    }
    if (family->size() < kAggregatesPerFamily) {
      Die("aggregates", Status::Internal("too few aggregate candidates"));
    }
  }
  for (std::size_t i = 0; i < kAggregatesPerFamily; ++i) {
    std::fprintf(out, "aggregate\tpossible\t%s\n", sums[i].c_str());
    std::fprintf(out, "aggregate\tpossible\t%s\n", counts[i].c_str());
  }

  // Pairs whose "X pays Y" verdict no stream step can change: paid on the
  // chain (happened for good, since the stream never retracts the generated
  // chain) or never paid by any generated transaction (impossible for
  // good). A surviving member costs a template class one shared clique
  // search per poll, seconds on the seed build, which would leave a run too
  // few intervals; survivors are exercised by the one-atom classes.
  const auto settled_pair = [&](bool paid) {
    for (int attempt = 0; attempt < 10000; ++attempt) {
      const std::string& from = book.users[rng.Below(book.users.size())];
      const std::string& to = book.users[rng.Below(book.users.size())];
      if (paid ? book.confirmed_pays.count({from, to}) > 0
               : book.ever_pays.count({from, to}) == 0) {
        return std::make_pair(from, to);
      }
    }
    Die("fleet", Status::Internal("no settled user pair"));
  };

  // The stream's standing set: a handful of grounded constraints with every
  // verdict. The two "receives" constraints share one template class; the
  // aggregates are evaluated one by one, with thresholds that R (reached)
  // or R ∪ T (out of reach of every generated transaction) settles, so the
  // stream stays on the write side and the Naive search stays in
  // `aggregate`.
  const auto paid = settled_pair(true);
  const auto unpaid = settled_pair(false);
  const std::pair<std::string, DenialConstraint> standing[] = {
      {"chain1-receives", MakeSimpleConstraint(meta.chain_pks.at(1))},
      {"absent-receives", MakeSimpleConstraint(meta.absent_pk)},
      {"rich-holds", MakeAggregateConstraint(meta.rich_pk,
                                             meta.rich_base_total / 2)},
      {"user-holds", MakeAggregateConstraint(user0, total(book.ever_in, user0) + 1)},
      {"user-pays", MakeDistinctTransfersConstraint(paid.first, paid.second, 1)},
      {"user-never-pays",
       MakeDistinctTransfersConstraint(unpaid.first, unpaid.second, 1)},
  };
  for (const auto& [label, q] : standing) {
    std::fprintf(out, "standing\t%s\t%s\n", label.c_str(),
                 q.ToString().c_str());
  }

  // The fleet. Class 0: "$who receives", bound to every address plus
  // absent ones. Classes 1-2: one-hop "$from pays $to" over settled user
  // pairs. Then one class per grounded path/star constraint (all distinct),
  // and aggregate members whose thresholds R (reached) or R ∪ T (out of
  // reach of every generated transaction) settles.
  constexpr std::size_t kReceivers = 8000;
  constexpr std::size_t kHopClasses = 2;
  constexpr std::size_t kHopMembers = 500;
  constexpr std::size_t kDistinctPerFamily = 3;
  std::fprintf(out, "class\treceives\tq() :- TxOut(ntx, s, $who, a)\n");
  // Receivers paid only by a double spend's rival are left out: deciding
  // one needs a world that picks the rival, which the shared clique search
  // of the seed build reaches only after seconds per poll.
  std::vector<std::string> who;
  for (const std::string& pk : book.addresses) {
    if (pk.rfind("DoubleSpendRcpt", 0) != 0) who.push_back(pk);
  }
  for (std::size_t k = 0; who.size() < kReceivers; ++k) {
    who.push_back("Nobody" + std::to_string(k) + "Pk");
  }
  for (const std::string& pk : who) {
    std::fprintf(out, "bind\t0\t%s\t%s\n",
                 MakeSimpleConstraint(pk).ToString().c_str(),
                 EncodeValue(Value::Str(pk)).c_str());
  }
  std::size_t class_id = 1;
  for (std::size_t c = 0; c < kHopClasses; ++c, ++class_id) {
    std::fprintf(out, "class\thop%zu\t%s\n", c,
                 HopText("$from", "$to").c_str());
    for (std::size_t m = 0; m < kHopMembers; ++m) {
      const auto [from, to] = settled_pair(m % 2 == 0);
      std::fprintf(out, "bind\t%zu\t%s\t%s\t%s\n", class_id,
                   HopText(Quote(from), Quote(to)).c_str(),
                   EncodeValue(Value::Str(from)).c_str(),
                   EncodeValue(Value::Str(to)).c_str());
    }
  }
  // One class per member: the grouping where batching has nothing to share.
  // qp2(X, Y) with X != Y is impossible (an input carries its output's pk),
  // qp2(X, X) and qr1(user) happened on the chain, and the QuietPk-bound
  // ones are impossible; the larger path and star shapes are left to
  // `adhoc` because their generalized queries enumerate every address.
  std::vector<std::pair<std::string, std::vector<std::string>>> distinct;
  distinct.push_back({"qp2", {meta.quiet_pk, meta.quiet_pk2}});
  distinct.push_back({"qr1", {meta.quiet_pk}});
  std::vector<std::string> spenders;  // Users that spent on the chain.
  for (const std::string& pk : book.users) {
    auto it = book.confirmed_pays.lower_bound({pk, ""});
    if (it != book.confirmed_pays.end() && it->first.first == pk) {
      spenders.push_back(pk);
    }
  }
  for (std::size_t k = 1; k < kDistinctPerFamily; ++k) {
    const std::string& x = spenders.at(rng.Below(spenders.size()));
    const std::string& y = spenders.at(rng.Below(spenders.size()));
    distinct.push_back({"qp2", {x, k % 2 == 0 ? x : y}});
    distinct.push_back({"qr1", {x}});
  }
  for (const auto& [family, constants] : distinct) {
    const DenialConstraint q =
        family == "qp2"
            ? MakePathConstraint(2, constants[0], constants.back())
            : MakeStarConstraint(1, constants[0]);
    const std::string text = q.ToString();
    std::string tmpl = text;
    std::string values;
    const char* params[] = {"$x", "$y"};
    for (std::size_t p = 0; p < constants.size(); ++p) {
      const std::string quoted = Quote(constants[p]);
      if (tmpl.find(quoted) == std::string::npos) continue;
      for (std::size_t at = tmpl.find(quoted); at != std::string::npos;
           at = tmpl.find(quoted, at)) {
        tmpl.replace(at, quoted.size(), params[p]);
      }
      values += "\t" + EncodeValue(Value::Str(constants[p]));
    }
    std::fprintf(out, "class\t%s-%zu\t%s\n", family.c_str(), class_id,
                 tmpl.c_str());
    std::fprintf(out, "bind\t%zu\t%s%s\n", class_id, text.c_str(),
                 values.c_str());
    ++class_id;
  }
  for (const std::string& pk : book.users) {
    const Satoshi base = total(book.confirmed_in, pk);
    if (base < 2) continue;
    std::fprintf(out, "add\t%s\n",
                 MakeAggregateConstraint(pk, base / 2).ToString().c_str());
    std::fprintf(out, "add\t%s\n",
                 MakeAggregateConstraint(pk, total(book.ever_in, pk) + 1)
                     .ToString()
                     .c_str());
  }
}

/// What GenerateWorkload produces that does not depend on --seed.
struct Base {
  std::vector<BitcoinTransaction> mempool;  // Broadcast order.
  bitcoin::WorkloadMetadata meta;
  std::size_t num_designated = 0;
  std::map<std::string, Satoshi> confirmed_in;
  std::map<AddressBook::Pair, std::int64_t> confirmed_pays;
};

std::string Field(const std::string& s) {
  if (s.find_first_of("\t\n") != std::string::npos) {
    Die("base", Status::Internal("tab or newline in a generated string"));
  }
  return s;
}

/// Generates the base and writes it: DIR/store holds the chain R,
/// DIR/base.tsv the mempool, the landmarks and R's per-address totals.
void WriteBase(const Args& args, const std::string& dir) {
  workload::DatasetSpec spec = workload::WithPendingTotal(
      workload::WithContradictions(workload::S200(), args.contradictions),
      args.window + args.pool);
  StatusOr<bitcoin::GeneratedWorkload> generated =
      bitcoin::GenerateWorkload(spec.params);
  if (!generated.ok()) Die("GenerateWorkload", generated.status());
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) Die("create " + dir, Status::Internal(error.message()));

  StatusOr<std::unique_ptr<storage::DurableStore>> store =
      storage::DurableStore::Open(dir + "/store", bitcoin::MakeBitcoinCatalog());
  if (!store.ok()) Die("open base store", store.status());
  StatusOr<BlockchainDatabase> bootstrap = (*store)->Recover(ConstraintSet{});
  if (!bootstrap.ok()) Die("bootstrap base store", bootstrap.status());
  bitcoin::SimulatedNode chain_only(generated->node.chain());
  StatusOr<BlockchainDatabase> db =
      bitcoin::BuildBlockchainDatabase(chain_only, store->get());
  if (!db.ok()) Die("import chain", db.status());
  for (int i = 0; i < 2; ++i) {
    Status checkpointed = (*store)->Checkpoint(*db);
    if (!checkpointed.ok()) Die("checkpoint base", checkpointed);
  }
  db->AttachDurabilitySink(nullptr);

  std::map<std::string, Satoshi> confirmed_in;
  std::map<AddressBook::Pair, std::int64_t> confirmed_pays;
  for (const bitcoin::Block& block : generated->node.chain().blocks()) {
    for (const BitcoinTransaction& tx : block.transactions()) {
      CountPayments(tx, confirmed_in, confirmed_pays);
    }
  }
  const std::string path = dir + "/base.tsv";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) Die("write base", Status::Internal(path));
  const bitcoin::WorkloadMetadata& meta = generated->metadata;
  std::fprintf(out, "designated\t%zu\n",
               spec.params.pending_chain_depth + spec.params.star_size +
                   spec.params.rich_payments);
  std::fprintf(out, "meta");
  for (const std::string& pk : meta.chain_pks) {
    std::fprintf(out, "\t%s", Field(pk).c_str());
  }
  std::fprintf(out, "\nlandmarks\t%s\t%s\t%lld\t%lld\t%s\t%s\t%s\n",
               Field(meta.star_pk).c_str(), Field(meta.rich_pk).c_str(),
               static_cast<long long>(meta.rich_base_total),
               static_cast<long long>(meta.rich_pending_total),
               Field(meta.quiet_pk).c_str(), Field(meta.quiet_pk2).c_str(),
               Field(meta.absent_pk).c_str());
  for (const auto& [pk, amount] : confirmed_in) {
    std::fprintf(out, "in\t%s\t%lld\n", Field(pk).c_str(),
                 static_cast<long long>(amount));
  }
  for (const auto& [pair, count] : confirmed_pays) {
    std::fprintf(out, "pays\t%s\t%s\t%lld\n", Field(pair.first).c_str(),
                 Field(pair.second).c_str(), static_cast<long long>(count));
  }
  for (const BitcoinTransaction& tx : generated->node.mempool().transactions()) {
    std::string line = "tx\t" + std::to_string(tx.inputs().size());
    for (const bitcoin::TxInput& in : tx.inputs()) {
      line += "\t" + std::to_string(in.prev.txid) + "\t" +
              std::to_string(in.prev.index) + "\t" + Field(in.pubkey) + "\t" +
              std::to_string(in.amount) + "\t" + Field(in.signature);
    }
    for (const bitcoin::TxOutput& o : tx.outputs()) {
      line += "\t" + Field(o.pubkey) + "\t" + std::to_string(o.amount);
    }
    std::fprintf(out, "%s\n", line.c_str());
  }
  if (std::fclose(out) != 0) Die("write base", Status::Internal(path));
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return fields;
    start = tab + 1;
  }
}

Base ReadBase(const std::string& dir) {
  const std::string path = dir + "/base.tsv";
  std::ifstream in(path);
  if (!in) Die("read base", Status::NotFound(path));
  Base base;
  std::string line;
  const auto num = [](const std::string& s) {
    return std::strtoll(s.c_str(), nullptr, 10);
  };
  while (std::getline(in, line)) {
    const std::vector<std::string> f = SplitTabs(line);
    if (f[0] == "designated") {
      base.num_designated = static_cast<std::size_t>(num(f.at(1)));
    } else if (f[0] == "meta") {
      base.meta.chain_pks.assign(f.begin() + 1, f.end());
    } else if (f[0] == "landmarks") {
      base.meta.star_pk = f.at(1);
      base.meta.rich_pk = f.at(2);
      base.meta.rich_base_total = num(f.at(3));
      base.meta.rich_pending_total = num(f.at(4));
      base.meta.quiet_pk = f.at(5);
      base.meta.quiet_pk2 = f.at(6);
      base.meta.absent_pk = f.at(7);
    } else if (f[0] == "in") {
      base.confirmed_in[f.at(1)] = num(f.at(2));
    } else if (f[0] == "pays") {
      base.confirmed_pays[{f.at(1), f.at(2)}] = num(f.at(3));
    } else if (f[0] == "tx") {
      const std::size_t num_inputs = static_cast<std::size_t>(num(f.at(1)));
      std::vector<bitcoin::TxInput> inputs;
      std::size_t i = 2;
      for (std::size_t k = 0; k < num_inputs; ++k, i += 5) {
        inputs.push_back(bitcoin::TxInput{
            OutPoint{num(f.at(i)), static_cast<std::int32_t>(num(f.at(i + 1)))},
            f.at(i + 2), num(f.at(i + 3)), f.at(i + 4)});
      }
      std::vector<bitcoin::TxOutput> outputs;
      for (; i + 1 < f.size(); i += 2) {
        outputs.push_back(bitcoin::TxOutput{f[i], num(f[i + 1])});
      }
      base.mempool.emplace_back(std::move(inputs), std::move(outputs));
    }
  }
  return base;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (!std::filesystem::exists(args.base + "/complete")) {
    const std::string partial = args.base + ".partial";
    std::filesystem::remove_all(partial);
    WriteBase(args, partial);
    std::ofstream(partial + "/complete") << "ok\n";
    std::filesystem::remove_all(args.base);
    std::filesystem::rename(partial, args.base);
  }
  const Base base = ReadBase(args.base);
  const bitcoin::WorkloadMetadata& meta = base.meta;

  Rng rng(args.seed);
  std::vector<BitcoinTransaction> order =
      ArrivalOrder(base.mempool, base.num_designated, rng);
  if (order.size() < args.window) {
    Die("arrival order", Status::Internal("mempool smaller than the window"));
  }
  std::vector<BitcoinTransaction> window(order.begin(),
                                         order.begin() + args.window);
  std::deque<BitcoinTransaction> pool(order.begin() + args.window, order.end());

  // Durable import: the base store holds the chain; the window goes on top,
  // then two checkpoints (the second lets retention drop the import's WAL),
  // which is the state a node's store is in at rest.
  std::error_code error;
  std::filesystem::create_directories(args.out, error);
  if (error) Die("create " + args.out, Status::Internal(error.message()));
  const std::string store_dir = args.out + "/store";
  std::filesystem::copy(args.base + "/store", store_dir,
                        std::filesystem::copy_options::recursive, error);
  if (error) Die("copy base store", Status::Internal(error.message()));
  StatusOr<std::unique_ptr<storage::DurableStore>> store =
      storage::DurableStore::Open(store_dir, bitcoin::MakeBitcoinCatalog());
  if (!store.ok()) Die("open store", store.status());
  StatusOr<ConstraintSet> constraints =
      bitcoin::MakeBitcoinConstraints((*store)->catalog());
  if (!constraints.ok()) Die("constraints", constraints.status());
  StatusOr<BlockchainDatabase> db = (*store)->Recover(std::move(*constraints));
  if (!db.ok()) Die("recover base store", db.status());
  db->AttachDurabilitySink(store->get());
  IntervalScript script(&*db, base.num_designated, args.window, args.seed);
  for (const BitcoinTransaction& tx : window) {
    StatusOr<PendingId> id = db->AddPending(bitcoin::ToRelationalTransaction(tx));
    if (!id.ok()) Die("import window", id.status());
    script.AddInitial(tx);
  }
  for (int i = 0; i < 2; ++i) {
    Status checkpointed = (*store)->Checkpoint(*db);
    if (!checkpointed.ok()) Die("checkpoint", checkpointed);
  }
  db->AttachDurabilitySink(nullptr);
  store->reset();

  const std::string inputs_path = args.out + "/inputs.tsv";
  std::FILE* out = std::fopen(inputs_path.c_str(), "w");
  if (out == nullptr) {
    Die("write inputs", Status::Internal("cannot open " + inputs_path));
  }
  std::fprintf(out, "meta\twindow\t%zu\n", args.window);
  std::fprintf(out, "meta\tseed\t%llu\n",
               static_cast<unsigned long long>(args.seed));

  WriteRequests(out, meta,
                BuildAddressBook(base.confirmed_in, base.confirmed_pays, order,
                                 args.window),
                rng);

  std::vector<Transaction> arrivals;
  std::vector<std::string> intervals;
  std::string ops;
  while (intervals.size() < args.intervals &&
         script.Step(pool, &ops, &arrivals)) {
    intervals.push_back(ops);
  }
  for (const Transaction& txn : arrivals) {
    std::fprintf(out, "%s\n", EncodeTxn(txn).c_str());
  }
  for (const std::string& line : intervals) {
    std::fprintf(out, "interval\t%s\n", line.c_str());
  }
  if (std::fclose(out) != 0) {
    Die("write inputs", Status::Internal("cannot close " + inputs_path));
  }
  std::fprintf(stderr,
               "perfbench_gen: seed %llu: %zu pending in the window, %zu "
               "arrivals over %zu intervals, live at end %zu\n",
               static_cast<unsigned long long>(args.seed), args.window,
               arrivals.size(), intervals.size(), script.live());
  return 0;
}
