#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dcsat.h"
#include "core/monitor.h"
#include "core/possible_worlds.h"
#include "grounded_reference.h"
#include "query/analysis.h"
#include "query/compiled_query.h"
#include "query/parser.h"
#include "running_example.h"
#include "util/parallel_for.h"
#include "util/rng.h"
#include "workload/constraints.h"

namespace bcdb {
namespace {

using testing_fixtures::GroundedVerdict;
using testing_fixtures::MakeRunningExample;
using Verdict = ConstraintMonitor::Verdict;

/// DcSatOptions::num_threads is Poll's fan-out width only: a check scans its
/// components serially whatever it says, so every thread count returns the
/// same verdict, witness and work counters. Concurrent const-path callers
/// and parallel polls must not interfere.

Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "S", {Attribute{"x", ValueType::kInt, false},
                            Attribute{"y", ValueType::kInt, true}}))
                  .ok());
  return catalog;
}

/// Random instance in the dcsat_oracle_test mold: R-key FD (+ optional IND
/// S.x ⊆ R.a) and a handful of colliding pending transactions, so seeds
/// produce a healthy mix of sat and unsat cases with several components.
BlockchainDatabase MakeRandomInstance(std::uint64_t seed, bool with_ind) {
  Xoshiro256 rng(seed);
  Catalog catalog = MakeCatalog();
  ConstraintSet constraints;
  auto key = FunctionalDependency::Key(catalog, "R", {"a"});
  EXPECT_TRUE(key.ok());
  constraints.AddFd(std::move(*key));
  if (with_ind) {
    auto ind = InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"});
    EXPECT_TRUE(ind.ok());
    constraints.AddInd(std::move(*ind));
  }
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());

  const std::size_t base_r = rng.NextBelow(3);
  for (std::size_t a = 0; a < base_r; ++a) {
    EXPECT_TRUE(db->InsertCurrent(
                      "R", Tuple({Value::Int(static_cast<std::int64_t>(a)),
                                  Value::Int(rng.NextInRange(0, 3))}))
                    .ok());
  }
  EXPECT_TRUE(db->ValidateCurrentState().ok());

  const std::size_t num_pending = 4 + rng.NextBelow(3);
  for (std::size_t t = 0; t < num_pending; ++t) {
    Transaction txn("P" + std::to_string(t));
    const std::size_t num_tuples = 1 + rng.NextBelow(2);
    for (std::size_t i = 0; i < num_tuples; ++i) {
      if (rng.NextBool(0.5)) {
        txn.Add("R", Tuple({Value::Int(rng.NextInRange(0, 5)),
                            Value::Int(rng.NextInRange(0, 3))}));
      } else {
        txn.Add("S", Tuple({Value::Int(rng.NextInRange(0, 5)),
                            Value::Int(rng.NextInRange(0, 3))}));
      }
    }
    EXPECT_TRUE(db->AddPending(txn).ok());
  }
  return std::move(*db);
}

const char* kConnectedMonotoneQueries[] = {
    "q() :- R(x, y)",
    "q() :- R(0, y)",
    "q() :- R(x, 2)",
    "q() :- S(x, y)",
    "q() :- R(x, y), S(x, z)",
    "q() :- R(x, 1), S(x, 2)",
    "q() :- R(x, y), S(x, z), y < z",
    "q() :- R(2, y), S(2, z)",
};

/// The serial reference first, then hardware concurrency and two widths.
constexpr std::size_t kThreadCounts[] = {1, 0, 2, 8};

/// Every verdict field and every non-timer DcSatStats field agree.
void ExpectSameCheck(const DcSatResult& got, const DcSatResult& want,
                     const std::string& context) {
  EXPECT_EQ(got.decided, want.decided) << context;
  EXPECT_EQ(got.satisfied, want.satisfied) << context;
  EXPECT_EQ(got.witness, want.witness) << context;
  const DcSatStats& g = got.stats;
  const DcSatStats& w = want.stats;
  EXPECT_EQ(g.algorithm_used, w.algorithm_used) << context;
  EXPECT_EQ(g.precheck_decided, w.precheck_decided) << context;
  EXPECT_EQ(g.num_pending, w.num_pending) << context;
  EXPECT_EQ(g.num_valid_nodes, w.num_valid_nodes) << context;
  EXPECT_EQ(g.fd_conflict_pairs, w.fd_conflict_pairs) << context;
  EXPECT_EQ(g.num_components, w.num_components) << context;
  EXPECT_EQ(g.theta_q_merged, w.theta_q_merged) << context;
  EXPECT_EQ(g.decomposition_reused, w.decomposition_reused) << context;
  EXPECT_EQ(g.num_components_covered, w.num_components_covered) << context;
  EXPECT_EQ(g.components_completed, w.components_completed) << context;
  EXPECT_EQ(g.num_cliques, w.num_cliques) << context;
  EXPECT_EQ(g.num_worlds_evaluated, w.num_worlds_evaluated) << context;
  EXPECT_EQ(g.maximal_probes, w.maximal_probes) << context;
  EXPECT_EQ(g.budget_expired, w.budget_expired) << context;
  EXPECT_EQ(g.steady_cache_hit, w.steady_cache_hit) << context;
}

/// Runs `options` over every connected monotone query, in order, on a fresh
/// engine at each thread count, and compares each check with the serial one
/// at the same position (so memo and appendability state match too).
void ExpectThreadCountIgnored(const BlockchainDatabase& db,
                              const DcSatOptions& options,
                              const std::string& context) {
  std::vector<DcSatResult> serial;
  for (std::size_t threads : kThreadCounts) {
    DcSatEngine engine(&db);
    DcSatOptions at = options;
    at.num_threads = threads;
    std::size_t position = 0;
    for (const char* text : kConnectedMonotoneQueries) {
      auto q = ParseDenialConstraint(text);
      ASSERT_TRUE(q.ok()) << text;
      auto result = engine.Check(*q, at);
      ASSERT_TRUE(result.ok()) << text;
      if (threads == 1) {
        serial.push_back(*result);
        continue;
      }
      ExpectSameCheck(*result, serial[position++],
                      context + " " + text +
                          " threads=" + std::to_string(threads));
    }
  }
}

class ParallelDcSatTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelDcSatTest, ParallelMatchesSerialIncludingWitness) {
  for (bool with_ind : {false, true}) {
    BlockchainDatabase db = MakeRandomInstance(GetParam(), with_ind);
    const std::string context = "seed " + std::to_string(GetParam()) +
                                " ind=" + std::to_string(with_ind);
    // Covers off so several components actually get searched (with covers
    // on, the constant-pinned queries collapse to one component).
    DcSatOptions options;
    options.algorithm = DcSatAlgorithm::kOpt;
    options.use_covers = false;
    ExpectThreadCountIgnored(db, options, context);

    // Each witness denotes a genuine violating possible world.
    DcSatEngine engine(&db);
    for (const char* text : kConnectedMonotoneQueries) {
      auto q = ParseDenialConstraint(text);
      ASSERT_TRUE(q.ok()) << text;
      auto result = engine.Check(*q, options);
      ASSERT_TRUE(result.ok()) << text;
      if (!result->witness) continue;
      EXPECT_TRUE(IsPossibleWorld(db, *result->witness)) << text;
      WorldView world = db.BaseView();
      for (PendingId id : *result->witness) {
        world.Activate(static_cast<TupleOwner>(id));
      }
      auto compiled = CompiledQuery::Compile(*q, &db.database());
      ASSERT_TRUE(compiled.ok());
      EXPECT_TRUE(compiled->Evaluate(world)) << text;
    }
  }
}

TEST_P(ParallelDcSatTest, ThreadCountZeroMeansHardwareConcurrency) {
  // Zero (hardware concurrency) and every other width leave a check as it
  // is under the default routing, under Naive, and under a work budget
  // that expires part-way (where `decided` is false on some queries).
  BlockchainDatabase db = MakeRandomInstance(GetParam(), true);
  const std::string context = "seed " + std::to_string(GetParam());
  ExpectThreadCountIgnored(db, DcSatOptions{}, context + " auto");
  DcSatOptions naive;
  naive.algorithm = DcSatAlgorithm::kNaive;
  naive.use_precheck = false;
  ExpectThreadCountIgnored(db, naive, context + " naive");
  DcSatOptions budgeted;
  budgeted.algorithm = DcSatAlgorithm::kOpt;
  budgeted.use_covers = false;
  budgeted.use_precheck = false;
  budgeted.budget.max_cliques = 2;
  ExpectThreadCountIgnored(db, budgeted, context + " budgeted");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDcSatTest,
                         ::testing::Range<std::uint64_t>(0, 60));

DenialConstraint Q(const std::string& text) {
  auto q = ParseDenialConstraint(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

TEST(ParallelMonitorTest, ParallelPollMatchesSerialVerdicts) {
  BlockchainDatabase serial_db = MakeRunningExample();
  BlockchainDatabase parallel_db = MakeRunningExample();
  ConstraintMonitor serial_monitor(&serial_db);
  ConstraintMonitor parallel_monitor(&parallel_db);
  const char* queries[] = {
      "q() :- TxOut(t, s, 'U8Pk', a)", "q() :- TxOut(t, s, 'U3Pk', a)",
      "q() :- TxOut(t, s, 'U9Pk', a)", "q() :- TxOut(t, s, 'U5Pk', a)",
      "q() :- TxOut(t, s, 'U1Pk', a)", "q() :- TxOut(t, s, 'U6Pk', a)"};
  std::vector<MonitorHandle> serial_handles;
  std::vector<MonitorHandle> parallel_handles;
  for (const char* text : queries) {
    auto serial_handle = serial_monitor.Add(text, Q(text));
    auto parallel_handle = parallel_monitor.Add(text, Q(text));
    ASSERT_TRUE(serial_handle.ok());
    ASSERT_TRUE(parallel_handle.ok());
    serial_handles.push_back(*serial_handle);
    parallel_handles.push_back(*parallel_handle);
  }

  DcSatOptions serial_options;
  serial_options.num_threads = 1;
  DcSatOptions parallel_options;
  parallel_options.num_threads = 4;
  ASSERT_TRUE(serial_monitor.Poll(serial_options).ok());
  auto parallel_changes = parallel_monitor.Poll(parallel_options);
  ASSERT_TRUE(parallel_changes.ok());
  // Both monitors against the grounded reference; a member compiles its
  // own plan exactly when neither probe settles it — not happened over R,
  // yet true over R ∪ T.
  DcSatEngine reference(&serial_db);
  std::size_t searched = 0;
  for (std::size_t i = 0; i < serial_handles.size(); ++i) {
    const DenialConstraint q = Q(queries[i]);
    const Verdict expected = GroundedVerdict(serial_db, reference, q);
    EXPECT_EQ(serial_monitor.verdict(serial_handles[i]), expected)
        << queries[i];
    EXPECT_EQ(parallel_monitor.verdict(parallel_handles[i]), expected)
        << queries[i];
    auto compiled = CompiledQuery::Compile(q, &serial_db.database());
    ASSERT_TRUE(compiled.ok());
    if (!compiled->Evaluate(serial_db.BaseView()) &&
        compiled->Evaluate(serial_db.PendingUnionView())) {
      ++searched;
    }
  }
  EXPECT_GT(searched, 0u);
  EXPECT_EQ(parallel_monitor.poll_stats().threads_used, 4u);
  EXPECT_EQ(parallel_monitor.poll_stats().constraints_parallel, 6u);
  // Searches run on the class plans: a poll compiles nothing.
  EXPECT_EQ(parallel_monitor.poll_stats().compile_cache_misses, 0u);

  // A quiescent re-poll reports nothing; with nothing mutated, the dirty
  // filter skips every constraint outright.
  auto again = parallel_monitor.Poll(parallel_options);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());
  EXPECT_EQ(parallel_monitor.poll_stats().constraints_skipped, 6u);
  EXPECT_EQ(parallel_monitor.poll_stats().constraints_evaluated, 6u);
}

TEST(ParallelMonitorTest, ConcurrentPollsFromManyThreadsAreSafe) {
  // Poll serializes internally (poll_mutex_); this exercises that claim
  // under tsan with genuinely concurrent callers.
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto u8 = monitor.Add("u8", Q("q() :- TxOut(t, s, 'U8Pk', a)"));
  auto u9 = monitor.Add("u9", Q("q() :- TxOut(t, s, 'U9Pk', a)"));
  ASSERT_TRUE(u8.ok());
  ASSERT_TRUE(u9.ok());
  ASSERT_TRUE(monitor.Poll().ok());

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      DcSatOptions options;
      options.num_threads = 2;
      for (int i = 0; i < 5; ++i) {
        auto changes = monitor.Poll(options);
        if (!changes.ok() || !changes->empty()) failed.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(monitor.verdict(*u8), Verdict::kPossible);
  EXPECT_EQ(monitor.verdict(*u9), Verdict::kImpossible);
}

TEST(ParallelMonitorTest, ConcurrentCheckPreparedCallersAgree) {
  // The const query path: many threads share one engine's caches and one
  // compiled query, each running a serial check. All must get the serial
  // answer with zero interference (the tsan job validates the "strictly
  // read-only after PrepareSteadyState" claim).
  BlockchainDatabase db = MakeRunningExample();
  DcSatEngine engine(&db);
  engine.PrepareSteadyState();
  auto q = ParseDenialConstraint("q() :- TxOut(t, s, 'U8Pk', a)");
  ASSERT_TRUE(q.ok());
  auto compiled = CompiledQuery::Compile(*q, &db.database());
  ASSERT_TRUE(compiled.ok());
  const AnalysisReport report = engine.Analyze(*q);

  auto serial =
      engine.CheckPrepared(*compiled, Tuple(), report.tractability);
  ASSERT_TRUE(serial.ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        auto result =
            engine.CheckPrepared(*compiled, Tuple(), report.tractability);
        if (!result.ok() || result->satisfied != serial->satisfied ||
            result->witness != serial->witness) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ParallelMonitorTest, ConcurrentDecompositionMemoMissesAndHitsAgree) {
  // qp3- and qr3-shaped checks from many threads on a cold decomposition
  // memo: the first checks of each shape miss concurrently and race to
  // store, the rest hit. Every result must equal a serial check on a
  // separate engine (the tsan job validates the memo's locking). Each round
  // mutates the database first, so every round starts cold again.
  BlockchainDatabase db = MakeRunningExample();
  DcSatEngine engine(&db);
  const DenialConstraint queries[] = {
      workload::MakePathConstraint(3, "U2Pk", "U2Pk"),
      workload::MakeStarConstraint(3, "U2Pk"),
  };
  DcSatOptions options;
  options.algorithm = DcSatAlgorithm::kOpt;
  options.use_precheck = false;  // Reach the decomposition.
  const Tuple bump({Value::Int(90), Value::Int(1), Value::Str("U9Pk"),
                    Value::Real(1)});
  for (int round = 0; round < 3; ++round) {
    if (round > 0) {
      const Status status = round % 2 == 1
                                ? db.InsertCurrent("TxOut", bump)
                                : db.RemoveCurrent("TxOut", bump);
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
    engine.PrepareSteadyState();
    std::vector<CompiledQuery> compiled;
    std::vector<AnalysisReport> reports;
    std::vector<DcSatResult> serial;
    DcSatEngine reference(&db);
    reference.PrepareSteadyState();
    for (const DenialConstraint& q : queries) {
      auto query = CompiledQuery::Compile(q, &db.database());
      ASSERT_TRUE(query.ok());
      compiled.push_back(std::move(*query));
      reports.push_back(engine.Analyze(q));
      auto result =
          reference.CheckPrepared(compiled.back(), Tuple(),
                                reports.back().tractability, options);
      ASSERT_TRUE(result.ok());
      serial.push_back(*result);
    }
    ASSERT_GT(serial[0].stats.num_components, 0u);
    ASSERT_GT(serial[1].stats.num_components, 0u);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 10; ++i) {
          const std::size_t k = static_cast<std::size_t>(t + i) % 2;
          auto result =
              engine.CheckPrepared(compiled[k], Tuple(),
                                   reports[k].tractability, options);
          if (!result.ok() || result->satisfied != serial[k].satisfied ||
              result->witness != serial[k].witness ||
              result->stats.num_components != serial[k].stats.num_components ||
              result->stats.theta_q_merged != serial[k].stats.theta_q_merged ||
              result->stats.num_cliques != serial[k].stats.num_cliques ||
              result->stats.num_worlds_evaluated !=
                  serial[k].stats.num_worlds_evaluated) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
    // Both shapes are memoized once the threads are done.
    for (std::size_t k = 0; k < 2; ++k) {
      auto again =
          engine.CheckPrepared(compiled[k], Tuple(),
                               reports[k].tractability, options);
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(again->stats.decomposition_reused) << "round " << round;
    }
  }
}

/// A G^fd with 8 maximal cliques of ~150 members each: base-witnessed,
/// self-witnessed, parent-witnessed and dangling spends (IND S.x ⊆ R.a),
/// plus 50 transactions on 3 contested R keys.
BlockchainDatabase MakeAppendabilityInstance() {
  Catalog catalog = MakeCatalog();
  ConstraintSet constraints;
  auto key = FunctionalDependency::Key(catalog, "R", {"a"});
  EXPECT_TRUE(key.ok());
  constraints.AddFd(std::move(*key));
  auto ind = InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"});
  EXPECT_TRUE(ind.ok());
  constraints.AddInd(std::move(*ind));
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());
  for (std::int64_t a = 0; a < 100; ++a) {
    EXPECT_TRUE(
        db->InsertCurrent("R", Tuple({Value::Int(a), Value::Int(0)})).ok());
  }
  for (std::int64_t i = 0; i < 200; ++i) {
    Transaction txn("P" + std::to_string(i));
    auto spend = [&](std::int64_t x) {
      txn.Add("S", Tuple({Value::Int(x), Value::Int(i)}));
    };
    switch (i % 4) {
      case 0:
        spend(i % 100);
        break;
      case 1:
        txn.Add("R", Tuple({Value::Int(1000 + i), Value::Int(1)}));
        spend(1000 + i);
        break;
      case 2:  // Spends the previous transaction's output, or nothing.
        spend(i % 8 == 2 ? 1000 + i - 1 : 5000 + i);
        break;
      default:
        txn.Add("R",
                Tuple({Value::Int(2000 + i / 4 % 3), Value::Int(i / 12 % 2)}));
        break;
    }
    EXPECT_TRUE(db->AddPending(txn).ok());
  }
  EXPECT_TRUE(db->ValidateCurrentState().ok());
  return std::move(*db);
}

TEST(ParallelMonitorTest, ConcurrentAppendabilityFillAgrees) {
  // Naive-routed checks from many threads, released together, on a cold
  // appendability-to-R status: their clique searches fill the same slots
  // at the same time (a benign race — both store one answer), later ones
  // read them. Every result must equal a serial check on a separate engine
  // (the tsan job validates the lock-free fill). Each round mutates the
  // database first, so every round starts cold again.
  BlockchainDatabase db = MakeAppendabilityInstance();
  DcSatEngine engine(&db);
  const DenialConstraint queries[] = {
      *ParseDenialConstraint("q() :- R(x, 5)"),
      *ParseDenialConstraint("q() :- S(x, y), R(x, 1)"),
      *ParseDenialConstraint("[q(cntd(x)) :- S(x, y)] >= 1000"),
  };
  constexpr std::size_t kQueries = std::size(queries);
  DcSatOptions options;
  options.algorithm = DcSatAlgorithm::kNaive;
  options.use_precheck = false;  // Reach the clique search.
  const Tuple bump({Value::Int(500), Value::Int(0)});
  for (int round = 0; round < 3; ++round) {
    if (round > 0) {
      const Status status = round % 2 == 1 ? db.InsertCurrent("R", bump)
                                           : db.RemoveCurrent("R", bump);
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
    engine.PrepareSteadyState();
    std::vector<CompiledQuery> compiled;
    std::vector<AnalysisReport> reports;
    std::vector<DcSatResult> serial;
    DcSatEngine reference(&db);
    reference.PrepareSteadyState();
    for (const DenialConstraint& q : queries) {
      auto query = CompiledQuery::Compile(q, &db.database());
      ASSERT_TRUE(query.ok());
      compiled.push_back(std::move(*query));
      reports.push_back(engine.Analyze(q));
      auto result =
          reference.CheckPrepared(compiled.back(), Tuple(),
                                reports.back().tractability, options);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->stats.algorithm_used, DcSatAlgorithm::kNaive);
      serial.push_back(*result);
    }
    ASSERT_TRUE(serial[0].satisfied);  // Searches every clique.
    ASSERT_EQ(serial[0].stats.num_cliques, 8u);
    ASSERT_FALSE(serial[1].satisfied);

    std::atomic<bool> go{false};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 6; ++i) {
          const std::size_t k = static_cast<std::size_t>(t + i) % kQueries;
          auto result =
              engine.CheckPrepared(compiled[k], Tuple(),
                                   reports[k].tractability, options);
          if (!result.ok() || result->satisfied != serial[k].satisfied ||
              result->witness != serial[k].witness ||
              result->stats.num_cliques != serial[k].stats.num_cliques ||
              result->stats.num_worlds_evaluated !=
                  serial[k].stats.num_worlds_evaluated) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    go.store(true);
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
    // Every slot the searches touch is filled once the threads are done:
    // no check runs more probes than the serial one, and the query the
    // reference engine checked first (on its cold status) runs fewer.
    for (std::size_t k = 0; k < kQueries; ++k) {
      auto again =
          engine.CheckPrepared(compiled[k], Tuple(),
                               reports[k].tractability, options);
      ASSERT_TRUE(again.ok());
      EXPECT_LE(again->stats.maximal_probes, serial[k].stats.maximal_probes)
          << "round " << round;
      if (k == 0) {
        EXPECT_LT(again->stats.maximal_probes, serial[k].stats.maximal_probes)
            << "round " << round;
      }
    }
  }
}

/// R(a, b) keyed on a with S[x] ⊆ R[a] (so member checks are CoNP-mixed and
/// run a search), three base R tuples, and pending double spends of R keys
/// plus S spends of base, pending and missing keys.
BlockchainDatabase MakeWidthInstance() {
  Catalog catalog = MakeCatalog();
  ConstraintSet constraints;
  constraints.AddFd(*FunctionalDependency::Key(catalog, "R", {"a"}));
  constraints.AddInd(
      *InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"}));
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());
  for (std::int64_t a = 0; a < 3; ++a) {
    EXPECT_TRUE(
        db->InsertCurrent("R", Tuple({Value::Int(a), Value::Int(a)})).ok());
  }
  for (std::int64_t i = 0; i < 8; ++i) {
    Transaction txn("P" + std::to_string(i));
    txn.Add("R", Tuple({Value::Int(3 + i / 2), Value::Int(i % 4)}));
    txn.Add("S", Tuple({Value::Int(i % 6), Value::Int(i)}));
    EXPECT_TRUE(db->AddPending(txn).ok());
  }
  return std::move(*db);
}

/// Every PollStats field except the two that report the width itself.
void ExpectSameWidthFreeStats(const ConstraintMonitor::PollStats& got,
                              const ConstraintMonitor::PollStats& want,
                              const std::string& context) {
  EXPECT_EQ(got.polls, want.polls) << context;
  EXPECT_EQ(got.compile_cache_hits, want.compile_cache_hits) << context;
  EXPECT_EQ(got.compile_cache_misses, want.compile_cache_misses) << context;
  EXPECT_EQ(got.constraints_evaluated, want.constraints_evaluated) << context;
  EXPECT_EQ(got.constraints_skipped, want.constraints_skipped) << context;
  EXPECT_EQ(got.undecided_verdicts, want.undecided_verdicts) << context;
  EXPECT_EQ(got.budget_escalations, want.budget_escalations) << context;
  EXPECT_EQ(got.backoff_skips, want.backoff_skips) << context;
  EXPECT_EQ(got.classes_evaluated, want.classes_evaluated) << context;
  EXPECT_EQ(got.constraints_batched, want.constraints_batched) << context;
}

TEST(ParallelMonitorTest, PollIsWidthInvariantAcrossChurn) {
  // Two monitors over identical histories: one polls serially, the other
  // alternates between width 4 and hardware concurrency. The fan-out may
  // split the probe tasks differently, but every change and every counter
  // that does not report the width must match.
  BlockchainDatabase serial_db = MakeWidthInstance();
  BlockchainDatabase wide_db = MakeWidthInstance();
  // A one-world budget leaves some searches undecided, so the escalation
  // and backoff counters take part in the comparison too.
  MonitorOptions monitor_options;
  monitor_options.budget.max_worlds = 1;
  ConstraintMonitor serial(&serial_db, monitor_options);
  ConstraintMonitor wide(&wide_db, monitor_options);

  // Projectable, with more bindings than R has tuples: answer passes.
  const char* cell = "q() :- R($a, $b)";
  // Not projectable, so probed member by member; eight members split into
  // chunks at width 4. Members true only over R ∪ T reach CheckPrepared.
  const char* above = "q() :- S(x, y), R(x, b), b > $t";
  // Projectable, but with fewer bindings than S has tuples: also probed
  // member by member and split, yet still counted as one batched class.
  const char* spend = "q() :- S($x, y)";
  constexpr std::int64_t kCellKeys = 9;
  constexpr std::int64_t kCellValues = 4;
  for (ConstraintMonitor* monitor : {&serial, &wide}) {
    auto cell_class = monitor->RegisterTemplate("cell", cell);
    auto above_class = monitor->RegisterTemplate("above", above);
    auto spend_class = monitor->RegisterTemplate("spend", spend);
    ASSERT_TRUE(cell_class.ok() && above_class.ok() && spend_class.ok());
    ASSERT_TRUE(monitor->template_batchable(*cell_class));
    ASSERT_FALSE(monitor->template_batchable(*above_class));
    ASSERT_TRUE(monitor->template_batchable(*spend_class));
    for (std::int64_t a = 0; a < kCellKeys; ++a) {
      for (std::int64_t b = 0; b < kCellValues; ++b) {
        ASSERT_TRUE(
            monitor->Bind(*cell_class, {Value::Int(a), Value::Int(b)}).ok());
      }
    }
    for (std::int64_t t = 0; t < 8; ++t) {
      ASSERT_TRUE(monitor->Bind(*above_class, {Value::Int(t)}).ok());
    }
    for (std::int64_t x = 0; x < 6; ++x) {
      ASSERT_TRUE(monitor->Bind(*spend_class, {Value::Int(x)}).ok());
    }
    ASSERT_TRUE(monitor->Add("spend-2", Q("q() :- S(2, y)")).ok());
  }
  // The initial poll, then adds, applies, discards, unapplies and quiet
  // polls (backoff retries only), each the same call on both databases.
  enum Op { kQuiet, kAdd, kApply, kDiscard, kUnapply };
  const std::pair<Op, PendingId> steps[] = {
      {kQuiet, 0},   {kApply, 0},   {kAdd, 0},     {kDiscard, 1},
      {kUnapply, 0}, {kApply, 2},   {kQuiet, 0},   {kAdd, 0},
      {kApply, 0},   {kDiscard, 3}, {kUnapply, 2}, {kQuiet, 0},
      {kApply, 2},   {kAdd, 0}};
  const std::size_t wide_widths[] = {4, 0};
  for (std::size_t step = 0; step < std::size(steps); ++step) {
    const std::string context = "step " + std::to_string(step);
    const auto [op, id] = steps[step];
    auto mutate = [&](BlockchainDatabase& db) -> Status {
      const auto key = static_cast<std::int64_t>(step);
      Transaction txn("A" + std::to_string(step));
      switch (op) {
        case kQuiet:
          return Status::OK();
        case kAdd:
          txn.Add("R", Tuple({Value::Int(10 + key), Value::Int(1)}));
          txn.Add("S", Tuple({Value::Int(key % 6), Value::Int(9)}));
          return db.AddPending(txn).status();
        case kApply:
          return db.ApplyPending(id);
        case kDiscard:
          return db.DiscardPending(id);
        case kUnapply:
          return db.UnapplyPending(id);
      }
      return Status::OK();
    };
    ASSERT_TRUE(mutate(serial_db).ok()) << context;
    ASSERT_TRUE(mutate(wide_db).ok()) << context;
    DcSatOptions serial_options;
    serial_options.num_threads = 1;
    DcSatOptions wide_options;
    wide_options.num_threads = wide_widths[step % 2];
    auto serial_changes = serial.Poll(serial_options);
    auto wide_changes = wide.Poll(wide_options);
    ASSERT_TRUE(serial_changes.ok()) << context << serial_changes.status();
    ASSERT_TRUE(wide_changes.ok()) << context << wide_changes.status();
    ASSERT_EQ(wide_changes->size(), serial_changes->size()) << context;
    for (std::size_t i = 0; i < serial_changes->size(); ++i) {
      const ConstraintMonitor::Change& want = (*serial_changes)[i];
      const ConstraintMonitor::Change& got = (*wide_changes)[i];
      EXPECT_EQ(got.handle.value(), want.handle.value()) << context;
      EXPECT_EQ(got.label, want.label) << context;
      EXPECT_EQ(got.before, want.before) << context;
      EXPECT_EQ(got.after, want.after) << context;
      EXPECT_EQ(got.template_label, want.template_label) << context;
      EXPECT_EQ(got.binding_summary, want.binding_summary) << context;
    }
    ExpectSameWidthFreeStats(wide.poll_stats(), serial.poll_stats(), context);
    EXPECT_EQ(serial.poll_stats().threads_used, 1u) << context;
    EXPECT_EQ(serial.poll_stats().constraints_parallel, 0u) << context;
    EXPECT_EQ(wide.poll_stats().threads_used,
              EffectiveThreads(wide_options.num_threads))
        << context;
  }
  // R only grows, so the cell class ran answer passes on every poll.
  const std::size_t r_id = *serial_db.database().catalog().RelationId("R");
  EXPECT_GT(static_cast<std::size_t>(kCellKeys * kCellValues),
            serial_db.database().relation(r_id).num_tuples());
  const ConstraintMonitor::PollStats stats = serial.poll_stats();
  EXPECT_EQ(stats.compile_cache_misses, 0u);
  EXPECT_EQ(stats.compile_cache_hits, 0u);
  EXPECT_GT(stats.undecided_verdicts, 0u);
  EXPECT_GT(stats.backoff_skips, 0u);
  EXPECT_GT(wide.poll_stats().constraints_parallel, 0u);
}

TEST(ParallelMonitorTest, CheckPreparedRejectsStaleCaches) {
  BlockchainDatabase db = MakeRunningExample();
  DcSatEngine engine(&db);
  engine.PrepareSteadyState();
  auto q = ParseDenialConstraint("q() :- TxOut(t, s, 'U8Pk', a)");
  ASSERT_TRUE(q.ok());
  auto compiled = CompiledQuery::Compile(*q, &db.database());
  ASSERT_TRUE(compiled.ok());
  const AnalysisReport report = engine.Analyze(*q);
  const TractabilityClass klass = report.tractability;
  ASSERT_TRUE(engine.CheckPrepared(*compiled, Tuple(), klass).ok());

  ASSERT_TRUE(db.DiscardPending(0).ok());  // Mutation → caches stale.
  EXPECT_FALSE(engine.CheckPrepared(*compiled, Tuple(), klass).ok());
  engine.PrepareSteadyState();
  auto fresh = CompiledQuery::Compile(*q, &db.database());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(engine.CheckPrepared(*fresh, Tuple(), klass).ok());
}

}  // namespace
}  // namespace bcdb
