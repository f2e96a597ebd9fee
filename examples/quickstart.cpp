// Quickstart: the paper's Example 4.
//
// Alice paid Bob one bitcoin, but the transaction lingers unconfirmed. She
// wants to re-issue the payment — but once both transaction messages are
// out, *both* may eventually be appended to the blockchain. Before
// broadcasting, she runs a dry run: add the hypothetical second transaction
// to the pending set and check the denial constraint "Bob is paid twice".
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <cstdio>

#include "bitcoin/to_relational.h"
#include "core/dcsat.h"
#include "query/parser.h"

using namespace bcdb;

namespace {

Tuple Out(std::int64_t tx, std::int64_t ser, const char* pk,
          std::int64_t amount) {
  return Tuple({Value::Int(tx), Value::Int(ser), Value::Str(pk),
                Value::Int(amount)});
}

Tuple In(std::int64_t prev_tx, std::int64_t prev_ser, const char* pk,
         std::int64_t amount, std::int64_t new_tx, const char* sig) {
  return Tuple({Value::Int(prev_tx), Value::Int(prev_ser), Value::Str(pk),
                Value::Int(amount), Value::Int(new_tx), Value::Str(sig)});
}

void Report(const char* label, const DcSatResult& result) {
  std::printf("%-28s -> %s (algorithm: %s, worlds evaluated: %zu)\n", label,
              !result.decided    ? "UNDECIDED: the search stopped early"
              : result.satisfied ? "SAFE: cannot happen in any possible world"
                                 : "DANGER: happens in some possible world",
              DcSatAlgorithmToString(result.stats.algorithm_used),
              result.stats.num_worlds_evaluated);
}

}  // namespace

int main() {
  // A blockchain database D = (R, I, T) over the paper's Example-1 schema:
  // TxOut(txId, ser, pk, amount), TxIn(prevTxId, prevSer, pk, amount,
  // newTxId, sig), with keys and inclusion dependencies.
  Catalog catalog = bitcoin::MakeBitcoinCatalog();
  auto constraints = bitcoin::MakeBitcoinConstraints(catalog);
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(*constraints));
  if (!db.ok()) {
    std::printf("setup failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // Current state R: Alice owns two confirmed 1-BTC outputs (txs 101, 102).
  (void)db->InsertCurrent("TxOut", Out(101, 1, "AlicePK", 1));
  (void)db->InsertCurrent("TxOut", Out(102, 1, "AlicePK", 1));

  // Pending payment #1: Alice -> Bob, spending output (101, 1) as tx 201.
  Transaction first_payment("pay-bob-1");
  first_payment.Add("TxIn", In(101, 1, "AlicePK", 1, 201, "AliceSig"));
  first_payment.Add("TxOut", Out(201, 1, "BobPK", 1));
  (void)db->AddPending(first_payment);

  // The denial constraint q1 of Example 4: two *different* transactions in
  // which Alice transfers 1 BTC to Bob. The engine compiles and classifies
  // it once and reuses both across the checks below.
  const char* q1_text =
      "q1() :- TxIn(pt1, ps1, 'AlicePK', 1, ntx1, 'AliceSig'), "
      "        TxOut(ntx1, ns1, 'BobPK', 1), "
      "        TxIn(pt2, ps2, 'AlicePK', 1, ntx2, 'AliceSig'), "
      "        TxOut(ntx2, ns2, 'BobPK', 1), ntx1 != ntx2";
  std::printf("Denial constraint:\n  %s\n\n", q1_text);
  auto q1 = ParseDenialConstraint(q1_text);
  if (!q1.ok()) {
    std::printf("parse failed: %s\n", q1.status().ToString().c_str());
    return 1;
  }

  DcSatEngine engine(&*db);

  // With only the first payment pending, Bob cannot be paid twice.
  auto before = engine.Check(*q1);
  if (!before.ok()) {
    std::printf("check failed: %s\n", before.status().ToString().c_str());
    return 1;
  }
  Report("before re-issuing", *before);

  // Dry run A (what Example 4 warns about): re-issue by spending Alice's
  // *other* output (102, 1) as tx 202. Both payments can then coexist.
  Transaction careless_reissue("pay-bob-2-careless");
  careless_reissue.Add("TxIn", In(102, 1, "AlicePK", 1, 202, "AliceSig"));
  careless_reissue.Add("TxOut", Out(202, 1, "BobPK", 1));
  auto careless_id = db->AddPending(careless_reissue);
  auto careless = engine.Check(*q1);
  Report("dry run: careless re-issue", *careless);

  // Retract the hypothetical transaction (a dry run never broadcasts).
  (void)db->DiscardPending(*careless_id);

  // Dry run B (the remedy Section 2 describes): make the transactions
  // *conflict* by spending the same output (101, 1) as tx 203. The key
  // constraint on TxIn(prevTxId, prevSer) rules out their coexistence.
  Transaction conflicting_reissue("pay-bob-2-conflicting");
  conflicting_reissue.Add("TxIn", In(101, 1, "AlicePK", 1, 203, "AliceSig"));
  conflicting_reissue.Add("TxOut", Out(203, 1, "BobPK", 1));
  (void)db->AddPending(conflicting_reissue);
  auto safe = engine.Check(*q1);
  Report("dry run: conflicting re-issue", *safe);

  std::printf(
      "\nConclusion: re-issue the payment as a conflicting transaction — in "
      "every possible\nworld at most one of the two spends of output "
      "(101, 1) is accepted, so Bob is paid once.\n");
  const bool decided =
      before->decided && careless->decided && safe->decided;
  return decided && before->satisfied && !careless->satisfied &&
                 safe->satisfied
             ? 0
             : 1;
}
