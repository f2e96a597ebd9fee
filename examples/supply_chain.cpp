// Supply chain: blockchain databases beyond cryptocurrency.
//
// A consortium tracks diamond provenance on a blockchain. The relational
// view has two relations:
//   Diamond(id, origin)                       — registered stones
//   Transfer(diamondId, seq, fromOwner, toOwner) — custody hand-offs
// with integrity constraints
//   key  Transfer(diamondId, seq)      — one hand-off per sequence step
//   ind  Transfer[diamondId] ⊆ Diamond[id] — only registered stones move.
//
// Dealers broadcast transfer transactions; consensus decides which are
// appended. A compliance officer asks: can stone #7 ever end up with a
// sanctioned entity, given everything currently pending? That is denial-
// constraint satisfaction over the possible worlds.
//
// Run: ./build/examples/supply_chain

#include <cstdio>

#include "core/dcsat.h"
#include "query/parser.h"

using namespace bcdb;

namespace {

Tuple Diamond(std::int64_t id, const char* origin) {
  return Tuple({Value::Int(id), Value::Str(origin)});
}

Tuple Transfer(std::int64_t diamond, std::int64_t seq, const char* from,
               const char* to) {
  return Tuple({Value::Int(diamond), Value::Int(seq), Value::Str(from),
                Value::Str(to)});
}

void Report(const char* question, const DcSatResult& result) {
  std::printf("%-52s %s\n", question,
              !result.decided    ? "UNDECIDED"
              : result.satisfied ? "NO (in every possible world)"
                                 : "YES (in some possible world)");
}

}  // namespace

int main() {
  Catalog catalog;
  (void)catalog.AddRelation(RelationSchema(
      "Diamond", {Attribute{"id", ValueType::kInt},
                  Attribute{"origin", ValueType::kString}}));
  (void)catalog.AddRelation(RelationSchema(
      "Transfer", {Attribute{"diamondId", ValueType::kInt},
                   Attribute{"seq", ValueType::kInt},
                   Attribute{"fromOwner", ValueType::kString},
                   Attribute{"toOwner", ValueType::kString}}));

  ConstraintSet constraints;
  constraints.AddFd(
      *FunctionalDependency::Key(catalog, "Transfer", {"diamondId", "seq"}));
  constraints.AddInd(*InclusionDependency::Create(
      catalog, "Transfer", {"diamondId"}, "Diamond", {"id"}));

  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  if (!db.ok()) return 1;

  // Accepted history: two registered stones, one past hand-off.
  (void)db->InsertCurrent("Diamond", Diamond(7, "Botswana"));
  (void)db->InsertCurrent("Diamond", Diamond(9, "Canada"));
  (void)db->InsertCurrent("Transfer", Transfer(7, 1, "Mine", "CutterA"));

  // Pending transfer transactions broadcast by dealers. Note P1 and P2
  // both claim hand-off #2 of stone 7 — only one can ever be appended
  // (the key constraint), exactly like conflicting Bitcoin spends.
  Transaction p1("sell-to-trader");
  p1.Add("Transfer", Transfer(7, 2, "CutterA", "TraderB"));
  Transaction p2("sell-to-shadow");
  p2.Add("Transfer", Transfer(7, 2, "CutterA", "ShadowCorp"));
  Transaction p3("trader-exports");  // Depends on P1's hand-off.
  p3.Add("Transfer", Transfer(7, 3, "TraderB", "RetailC"));
  Transaction p4("register-and-move");  // Self-contained: registers stone 11.
  p4.Add("Diamond", Diamond(11, "Unknown"));
  p4.Add("Transfer", Transfer(11, 1, "Mine", "ShadowCorp"));
  for (const Transaction& txn : {p1, p2, p3, p4}) {
    if (!db->AddPending(txn).ok()) return 1;
  }

  DcSatEngine engine(&*db);
  auto ask = [&](const char* question, const char* text) {
    auto q = ParseDenialConstraint(text);
    if (!q.ok()) {
      std::printf("parse error: %s\n", q.status().ToString().c_str());
      return;
    }
    auto result = engine.Check(*q);
    if (!result.ok()) {
      std::printf("check error: %s\n", result.status().ToString().c_str());
      return;
    }
    Report(question, *result);
  };

  std::printf("Compliance questions over the pending transfer pool:\n\n");
  ask("Can stone 7 reach ShadowCorp?",
      "q() :- Transfer(7, s, f, 'ShadowCorp')");
  ask("Can ANY stone reach ShadowCorp?",
      "q() :- Transfer(d, s, f, 'ShadowCorp')");
  ask("Can stone 7 be handed off twice at the same step?",
      "q() :- Transfer(7, s, f1, t1), Transfer(7, s, f2, t2), t1 != t2");
  ask("Can stone 7 pass through TraderB to RetailC?",
      "q() :- Transfer(7, s1, f, 'TraderB'), Transfer(7, s2, 'TraderB', "
      "'RetailC')");
  ask("Can an unregistered stone move?",
      "q() :- Transfer(42, s, f, t)");
  ask("Can stone 9 move at all?", "q() :- Transfer(9, s, f, t)");
  ask("Can 3 or more hand-offs of stone 7 coexist?",
      "[q(count()) :- Transfer(7, s, f, t)] >= 3");

  std::printf(
      "\nReading: hand-off collisions are impossible by the key constraint "
      "(like Bitcoin double\nspends); ShadowCorp remains reachable through "
      "either the contested hand-off or the newly\nregistered stone — the "
      "officer should act before consensus does.\n");
  return 0;
}
