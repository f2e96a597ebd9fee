#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "core/monitor.h"
#include "grounded_reference.h"
#include "query/parser.h"
#include "running_example.h"

namespace bcdb {
namespace {

using testing_fixtures::GroundedVerdict;
using testing_fixtures::MakeRunningExample;
using Verdict = ConstraintMonitor::Verdict;

DenialConstraint Q(const std::string& text) {
  auto q = ParseDenialConstraint(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

TEST(ConstraintMonitorTest, AddValidatesAgainstSchema) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  EXPECT_TRUE(monitor.Add("ok", Q("q() :- TxOut(t, s, 'U8Pk', a)")).ok());
  EXPECT_FALSE(monitor.Add("bad", Q("q() :- Nope(x)")).ok());
  EXPECT_EQ(monitor.size(), 1u);
}

TEST(ConstraintMonitorTest, FirstPollReportsAllVerdicts) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto pending_only = monitor.Add("u8", Q("q() :- TxOut(t, s, 'U8Pk', a)"));
  auto on_chain = monitor.Add("u3", Q("q() :- TxOut(t, s, 'U3Pk', a)"));
  auto never = monitor.Add("u9", Q("q() :- TxOut(t, s, 'U9Pk', a)"));
  ASSERT_TRUE(pending_only.ok());
  ASSERT_TRUE(on_chain.ok());
  ASSERT_TRUE(never.ok());

  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 3u);
  EXPECT_EQ(monitor.verdict(*pending_only), Verdict::kPossible);
  EXPECT_EQ(monitor.verdict(*on_chain), Verdict::kHappened);
  EXPECT_EQ(monitor.verdict(*never), Verdict::kImpossible);
  for (const auto& change : *changes) {
    EXPECT_EQ(change.before, Verdict::kUnknown);
  }
}

TEST(ConstraintMonitorTest, QuiescentPollReportsNothing) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  ASSERT_TRUE(monitor.Add("u8", Q("q() :- TxOut(t, s, 'U8Pk', a)")).ok());
  ASSERT_TRUE(monitor.Poll().ok());
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  EXPECT_TRUE(changes->empty());
}

TEST(ConstraintMonitorTest, TransitionsTrackDatabaseEvolution) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  // "U8Pk is paid" requires T4 (hence T1, T2, T3).
  auto handle = monitor.Add("u8", Q("q() :- TxOut(t, s, 'U8Pk', a)"));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(monitor.Poll().ok());
  EXPECT_EQ(monitor.verdict(*handle), Verdict::kPossible);

  // T5 confirms: T1 becomes permanently conflicted, so T2/T4 can never
  // append — the payout flips to impossible once T1 is evicted.
  ASSERT_TRUE(db.ApplyPending(4).ok());     // T5 into R.
  ASSERT_TRUE(db.DiscardPending(0).ok());   // Node evicts T1.
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].before, Verdict::kPossible);
  EXPECT_EQ((*changes)[0].after, Verdict::kImpossible);
}

TEST(ConstraintMonitorTest, PossibleBecomesHappened) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto handle = monitor.Add("u5", Q("q() :- TxOut(t, s, 'U5Pk', a)"));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(monitor.Poll().ok());
  EXPECT_EQ(monitor.verdict(*handle), Verdict::kPossible);

  ASSERT_TRUE(db.ApplyPending(0).ok());  // T1 (pays U5Pk) confirms.
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].after, Verdict::kHappened);
  EXPECT_EQ(monitor.label((*changes)[0].handle), "u5");
}

TEST(ConstraintMonitorTest, VerdictStrings) {
  EXPECT_STREQ(ConstraintMonitor::VerdictToString(Verdict::kHappened),
               "happened");
  EXPECT_STREQ(ConstraintMonitor::VerdictToString(Verdict::kPossible),
               "possible");
  EXPECT_STREQ(ConstraintMonitor::VerdictToString(Verdict::kImpossible),
               "impossible");
  EXPECT_STREQ(ConstraintMonitor::VerdictToString(Verdict::kUnknown),
               "unknown");
  EXPECT_STREQ(ConstraintMonitor::VerdictToString(Verdict::kUndecided),
               "undecided");
}

// A failing poll must not silently commit the verdicts it computed before
// the failure: a transition committed-but-not-returned is lost forever (the
// next poll sees the verdict already updated and reports no Change).
TEST(ConstraintMonitorTest, BaseRemovalDirtiesOnlyTouchedRelations) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto watch_out = monitor.Add("u9", Q("q() :- TxOut(t, s, 'U9Pk', a)"));
  auto watch_in = monitor.Add("in", Q("q() :- TxIn(p, s, 'U1Pk', a, n, g)"));
  ASSERT_TRUE(watch_out.ok());
  ASSERT_TRUE(watch_in.ok());
  const Tuple row({Value::Int(99), Value::Int(1), Value::Str("U9Pk"),
                   Value::Int(1)});
  ASSERT_TRUE(db.InsertCurrent("TxOut", row).ok());
  ASSERT_TRUE(monitor.Poll().ok());
  EXPECT_EQ(monitor.verdict(*watch_out), Verdict::kHappened);

  // A reorg retracts the row: the TxOut watcher must go dirty and
  // re-verdict. The TxIn watcher also re-runs — its IND-closed footprint
  // spans TxOut (inputs reference outputs) — but keeps its verdict.
  ASSERT_TRUE(db.RemoveCurrent("TxOut", row).ok());
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].before, Verdict::kHappened);
  EXPECT_EQ((*changes)[0].after, Verdict::kImpossible);
  EXPECT_EQ(monitor.verdict(*watch_out), Verdict::kImpossible);

}

TEST(ConstraintMonitorTest, RemovalDirtyFilterSkipsUncoupledWatchers) {
  // TxIn/TxOut share one IND-coupling class, so the bitcoin schema cannot
  // show the filter's precision; two IND-free relations can. Only the
  // watcher of the retracted relation re-evaluates.
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false}}))
                  .ok());
  ASSERT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "S", {Attribute{"x", ValueType::kInt, false}}))
                  .ok());
  auto db = BlockchainDatabase::Create(std::move(catalog), ConstraintSet());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->InsertCurrent("R", Tuple({Value::Int(1)})).ok());
  ASSERT_TRUE(db->InsertCurrent("R", Tuple({Value::Int(2)})).ok());
  ASSERT_TRUE(db->InsertCurrent("S", Tuple({Value::Int(7)})).ok());

  ConstraintMonitor monitor(&*db);
  auto watch_r = monitor.Add("r", Q("q() :- R(x)"));
  auto watch_s = monitor.Add("s", Q("q() :- S(x)"));
  ASSERT_TRUE(watch_r.ok());
  ASSERT_TRUE(watch_s.ok());
  ASSERT_TRUE(monitor.Poll().ok());

  ASSERT_TRUE(db->RemoveCurrent("R", Tuple({Value::Int(2)})).ok());
  const auto evaluated_before = monitor.poll_stats().constraints_evaluated;
  const auto skipped_before = monitor.poll_stats().constraints_skipped;
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  EXPECT_TRUE(changes->empty());  // R(1) still matches.
  EXPECT_EQ(monitor.poll_stats().constraints_evaluated - evaluated_before,
            1u);
  EXPECT_EQ(monitor.poll_stats().constraints_skipped - skipped_before, 1u);
}

TEST(ConstraintMonitorTest, RestoredTransactionReopensPossibility) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto u5 = monitor.Add("u5", Q("q() :- TxOut(t, s, 'U5Pk', a)"));
  ASSERT_TRUE(u5.ok());
  ASSERT_TRUE(db.ApplyPending(0).ok());  // T1 pays U5Pk on-chain.
  ASSERT_TRUE(monitor.Poll().ok());
  EXPECT_EQ(monitor.verdict(*u5), Verdict::kHappened);

  // The reorg returns T1 to the mempool: kPendingRestored carries T1's
  // registration-time footprint, so the watcher goes dirty and the payout
  // is merely possible again.
  ASSERT_TRUE(db.UnapplyPending(0).ok());
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].before, Verdict::kHappened);
  EXPECT_EQ((*changes)[0].after, Verdict::kPossible);
  EXPECT_EQ(monitor.verdict(*u5), Verdict::kPossible);
}

TEST(ConstraintMonitorTest, FailedPollDoesNotSwallowTransitions) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  // Handle order matters: the transitioning entry must precede the failing
  // one so its verdict is computed first.
  auto moving = monitor.Add("u5", Q("q() :- TxOut(t, s, 'U5Pk', a)"));
  auto aggregate =
      monitor.Add("count", Q("[q(count()) :- TxOut(t, s, p, a)] = 99"));
  ASSERT_TRUE(moving.ok());
  ASSERT_TRUE(aggregate.ok());
  ASSERT_TRUE(monitor.Poll().ok());
  ASSERT_EQ(monitor.verdict(*moving), Verdict::kPossible);

  ASSERT_TRUE(db.ApplyPending(0).ok());  // T1 (pays U5Pk) confirms.
  // kOpt is unsound for the aggregate entry, so its evaluation errors —
  // after the u5 entry's new verdict was already computed.
  DcSatOptions opt_only;
  opt_only.algorithm = DcSatAlgorithm::kOpt;
  EXPECT_FALSE(monitor.Poll(opt_only).ok());
  // Nothing committed: u5 still reports the old verdict...
  EXPECT_EQ(monitor.verdict(*moving), Verdict::kPossible);

  // ...and the next successful poll reports its transition.
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  bool reported = false;
  for (const auto& change : *changes) {
    if (change.handle == *moving) {
      EXPECT_EQ(change.before, Verdict::kPossible);
      EXPECT_EQ(change.after, Verdict::kHappened);
      reported = true;
    }
  }
  EXPECT_TRUE(reported);
  EXPECT_EQ(monitor.verdict(*moving), Verdict::kHappened);
}

// A failed poll also must not count its entries as evaluated — the stats
// would otherwise claim work that never committed.
TEST(ConstraintMonitorTest, FailedPollDoesNotCountEvaluations) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  ASSERT_TRUE(
      monitor.Add("count", Q("[q(count()) :- TxOut(t, s, p, a)] = 99")).ok());
  DcSatOptions opt_only;
  opt_only.algorithm = DcSatAlgorithm::kOpt;
  EXPECT_FALSE(monitor.Poll(opt_only).ok());
  EXPECT_EQ(monitor.poll_stats().constraints_evaluated, 0u);
  ASSERT_TRUE(monitor.Poll().ok());
  EXPECT_EQ(monitor.poll_stats().constraints_evaluated, 1u);
}

// threads_used reports the requested width, not min(width, dirty): the
// number of *dirty* constraints fluctuates every poll in steady state.
TEST(ConstraintMonitorTest, PoolWidthStableAcrossDirtyCounts) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  ASSERT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "S", {Attribute{"x", ValueType::kInt, false},
                            Attribute{"y", ValueType::kInt, false}}))
                  .ok());
  ConstraintSet constraints;
  constraints.AddFd(*FunctionalDependency::Key(catalog, "R", {"a"}));
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  ASSERT_TRUE(db.ok());
  for (std::int64_t i = 0; i < 3; ++i) {
    Transaction r_txn;
    r_txn.Add("R", Tuple({Value::Int(i), Value::Int(0)}));
    ASSERT_TRUE(db->AddPending(r_txn).ok());
  }

  ConstraintMonitor monitor(&*db);
  DcSatEngine reference(&*db);
  std::vector<std::pair<MonitorHandle, DenialConstraint>> members;
  auto add = [&](const std::string& label, const std::string& text) {
    auto handle = monitor.Add(label, Q(text));
    ASSERT_TRUE(handle.ok()) << handle.status();
    members.emplace_back(*handle, Q(text));
  };
  for (int c = 0; c < 4; ++c) {
    add("r" + std::to_string(c), "q() :- R(x, " + std::to_string(c) + ")");
  }
  for (int c = 0; c < 2; ++c) {
    add("s" + std::to_string(c), "q() :- S(" + std::to_string(c) + ", y)");
  }
  auto expect_grounded = [&](const char* when) {
    for (const auto& [handle, q] : members) {
      EXPECT_EQ(monitor.verdict(handle), GroundedVerdict(*db, reference, q))
          << when << ": " << monitor.label(handle);
    }
  };

  DcSatOptions four_threads;
  four_threads.num_threads = 4;
  ASSERT_TRUE(monitor.Poll(four_threads).ok());  // 6 dirty entries.
  EXPECT_EQ(monitor.poll_stats().threads_used, 4u);
  expect_grounded("first poll");

  // Mutate S only: just the two S entries go dirty (no IND couples S to
  // R), yet the reported width stays the requested one.
  Transaction s_txn;
  s_txn.Add("S", Tuple({Value::Int(0), Value::Int(7)}));
  ASSERT_TRUE(db->AddPending(s_txn).ok());
  ASSERT_TRUE(monitor.Poll(four_threads).ok());
  EXPECT_EQ(monitor.poll_stats().threads_used, 4u);
  EXPECT_EQ(monitor.poll_stats().constraints_skipped, 4u);
  expect_grounded("after the S mutation");
}

// Regression: poll_stats()/verdict()/label() used to hand out references
// into state the next Poll mutates in place — a data race tsan flagged the
// moment a dashboard thread read counters mid-poll. All three are now
// by-value snapshots taken under the monitor lock; this test recreates the
// racing reader so the tsan job pins the fix.
TEST(ConstraintMonitorTest, StatsReadersRaceWithPoll) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto handle = monitor.Add("u8", Q("q() :- TxOut(t, s, 'U8Pk', a)"));
  ASSERT_TRUE(handle.ok());

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::size_t last_polls = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const auto stats = monitor.poll_stats();
      // Snapshots must be internally consistent and monotone even when
      // taken mid-poll.
      EXPECT_GE(stats.polls, last_polls);
      last_polls = stats.polls;
      (void)monitor.verdict(*handle);
      (void)monitor.label(*handle);
      (void)monitor.size();
    }
  });

  bool applied = false;
  for (int i = 0; i < 100; ++i) {
    if (i == 50) applied = db.ApplyPending(4).ok();  // T5 confirms mid-run.
    ASSERT_TRUE(monitor.Poll().ok());
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_TRUE(applied);
  EXPECT_EQ(monitor.poll_stats().polls, 100u);
}

}  // namespace
}  // namespace bcdb
