// Monitor fan-out: per-poll cost of N near-identical standing constraints
// in a ConstraintMonitor (class plans shared per template class) versus the
// per-constraint baseline.
//
// The registration shapes stress the class structure the monitor's API is
// built around:
//   one_class    — one RegisterTemplate, N bindings: the advertised case.
//   k_classes    — the same template registered 16 times (RegisterTemplate
//                  never merges), bindings striped round-robin.
//   all_distinct — one class per member: the degenerate grouping where
//                  sharing a plan cannot help and must not hurt.
//   added        — the one_class members as ground constraints through
//                  Add, which canonicalizes them into the classes it
//                  creates (two: R($p0, $p0) for the members whose two
//                  values are equal, R($p0, $p1) for the rest).
// The per_constraint baseline is a loop in this file that does, every poll,
// what a monitor without class plans did for every member: compile the
// grounded constraint, evaluate it over R, and otherwise decide it with
// DcSatEngine::CheckPrepared (serially, one member after another). After
// its timed polls, every monitor run is checked against that loop on the
// same database, and the bench exits non-zero on any disagreement.
//
// Standalone timer (no google-benchmark): emits a human table on stderr and
// the machine-readable BENCH_monitor_fanout.json. Each row prints its
// registration time in total and per member, so `added` (Add) and
// `one_class` (Bind) read side by side. Pass --smoke (or BCDB_BENCH_SMOKE=1)
// for a seconds-scale CI run: its small rows each time polls until 30 polls
// or 50 ms of polls, whichever comes first, so two builds' smoke medians can
// be compared. The full run times 5 polls per row, sweeps 10^2..10^5 in both
// modes plus a monitor-only 10^6 point and enforces the >= 20x acceptance
// bound at 10^5 / one_class.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/monitor.h"
#include "query/compiled_query.h"
#include "query/template.h"

namespace {

using namespace bcdb;
using namespace bcdb::bench;

/// Parses and strips --bcdb_threads=N, after reading BCDB_NUM_THREADS: the
/// polls' fan-out width (DcSatOptions::num_threads; 0 = hardware
/// concurrency). Defaults to 1, serial polls.
std::size_t ApplyThreadFlag(int* argc, char** argv) {
  std::size_t threads = 1;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only, no setenv anywhere
  if (const char* env = std::getenv("BCDB_NUM_THREADS")) {
    threads = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  constexpr const char kFlag[] = "--bcdb_threads=";
  int out = 0;
  for (int i = 0; i < *argc; ++i) {
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      threads = static_cast<std::size_t>(
          std::strtoul(argv[i] + sizeof(kFlag) - 1, nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return threads;
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0.0 : xs[xs.size() / 2];
}

/// R(a, b) with key a: a few conflicting pending pairs (so polls do real
/// possible-worlds work) plus singleton transactions the fleet bindings can
/// hit. Small on purpose — the sweep varies the *fleet*, not the data.
BlockchainDatabase MakeDatabase() {
  Catalog catalog;
  if (!catalog
           .AddRelation(RelationSchema(
               "R", {Attribute{"a", ValueType::kInt, false},
                     Attribute{"b", ValueType::kInt, false}}))
           .ok()) {
    std::abort();
  }
  ConstraintSet constraints;
  auto key = FunctionalDependency::Key(catalog, "R", {"a"});
  if (!key.ok()) std::abort();
  constraints.AddFd(std::move(*key));
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  if (!db.ok()) std::abort();
  for (std::int64_t i = 0; i < 8; ++i) {
    if (!db->InsertCurrent("R", Tuple({Value::Int(-1 - i), Value::Int(i % 3)}))
             .ok()) {
      std::abort();
    }
  }
  // Double-spend pairs (i,0) vs (i,1) for i < 4, then singletons.
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t b : {0, 1}) {
      Transaction txn;
      txn.Add("R", Tuple({Value::Int(i), Value::Int(b)}));
      if (!db->AddPending(txn).ok()) std::abort();
    }
  }
  for (std::int64_t i = 4; i < 16; ++i) {
    Transaction txn;
    txn.Add("R", Tuple({Value::Int(i), Value::Int(i % 3)}));
    if (!db->AddPending(txn).ok()) std::abort();
  }
  return std::move(*db);
}

constexpr const char* kTemplateText = "q() :- R($a, $b)";

using Verdict = ConstraintMonitor::Verdict;

/// Member i's parameter binding (every shape binds the same N values).
std::vector<Value> MemberBinding(std::size_t i) {
  return {Value::Int(static_cast<std::int64_t>(i)),
          Value::Int(static_cast<std::int64_t>(i % 3))};
}

/// Member i's grounded constraint.
DenialConstraint GroundedMember(std::size_t i) {
  static const ConstraintTemplate tmpl = [] {
    auto parsed = ConstraintTemplate::Parse(kTemplateText);
    if (!parsed.ok()) std::abort();
    return *std::move(parsed);
  }();
  auto q = tmpl.Instantiate(MemberBinding(i));
  if (!q.ok()) std::abort();
  return *std::move(q);
}

/// The per-constraint baseline's verdict for one member: compile the
/// grounded constraint, evaluate it over R, otherwise CheckPrepared with the
/// member's analysis. `engine` must have fresh steady-state caches.
Verdict PerConstraintVerdict(const DcSatEngine& engine,
                             const BlockchainDatabase& db,
                             const DenialConstraint& q,
                             const AnalysisReport& report) {
  auto compiled = CompiledQuery::Compile(q, &db.database());
  if (!compiled.ok()) std::abort();
  if (compiled->Evaluate(db.BaseView())) return Verdict::kHappened;
  DcSatOptions options;  // Serial and unbudgeted, like each monitor search.
  auto result =
      engine.CheckPrepared(*compiled, Tuple(), report.tractability, options);
  if (!result.ok()) std::abort();
  if (!result->decided) return Verdict::kUndecided;
  return result->satisfied ? Verdict::kImpossible : Verdict::kPossible;
}

/// Registers the fleet into `monitor` under `shape`, appending each member's
/// handle to `handles`; returns false on any registration error.
bool RegisterFleet(ConstraintMonitor& monitor, const std::string& shape,
                   std::size_t n, std::vector<MonitorHandle>* handles) {
  if (shape == "added") {
    for (std::size_t i = 0; i < n; ++i) {
      auto handle = monitor.Add("m" + std::to_string(i), GroundedMember(i));
      if (!handle.ok()) {
        std::fprintf(stderr, "Add failed: %s\n",
                     handle.status().ToString().c_str());
        return false;
      }
      handles->push_back(*handle);
    }
    return true;
  }
  std::size_t num_classes = 1;
  if (shape == "k_classes") num_classes = 16;
  if (shape == "all_distinct") num_classes = n;
  std::vector<TemplateHandle> classes;
  classes.reserve(num_classes);
  for (std::size_t c = 0; c < num_classes; ++c) {
    std::string label = "c";
    label += std::to_string(c);
    auto handle = monitor.RegisterTemplate(std::move(label), kTemplateText);
    if (!handle.ok()) {
      std::fprintf(stderr, "RegisterTemplate failed: %s\n",
                   handle.status().ToString().c_str());
      return false;
    }
    classes.push_back(*handle);
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto handle = monitor.Bind(classes[i % num_classes], MemberBinding(i));
    if (!handle.ok()) {
      std::fprintf(stderr, "Bind failed: %s\n",
                   handle.status().ToString().c_str());
      return false;
    }
    handles->push_back(*handle);
  }
  return true;
}

/// How many polls a row times: `max_polls`, or fewer once the timed polls
/// add up to `min_seconds`.
struct PollWindow {
  std::size_t max_polls;
  double min_seconds;
};

/// Median seconds of `poll` over the churn steps of `window` (one fresh
/// pending transaction per step keeps every member dirty, as in steady
/// state), after one warm-up poll, the first, whose seconds go to `*first`
/// when it is non-null.
template <typename PollFn>
double TimedPolls(BlockchainDatabase& db, const PollWindow& window,
                  std::int64_t* next_key, const PollFn& poll,
                  double* first = nullptr) {
  Stopwatch first_watch;
  poll();
  if (first != nullptr) *first = first_watch.ElapsedSeconds();
  std::vector<double> seconds;
  double total = 0;
  while (seconds.size() < window.max_polls && total < window.min_seconds) {
    Transaction churn;
    churn.Add("R", Tuple({Value::Int((*next_key)++), Value::Int(0)}));
    if (!db.AddPending(churn).ok()) std::abort();
    Stopwatch watch;
    poll();
    seconds.push_back(watch.ElapsedSeconds());
    total += seconds.back();
  }
  return Median(seconds);
}

/// The number of monitor verdicts that differ from the per-constraint
/// baseline's over the database's current state.
std::size_t CountDisagreements(const ConstraintMonitor& monitor,
                               const std::vector<MonitorHandle>& handles,
                               const BlockchainDatabase& db) {
  DcSatEngine engine(&db);
  engine.PrepareSteadyState();
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const DenialConstraint q = GroundedMember(i);
    const Verdict expected =
        PerConstraintVerdict(engine, db, q, engine.Analyze(q));
    if (monitor.verdict(handles[i]) != expected) ++disagreements;
  }
  return disagreements;
}

struct Run {
  std::string shape;
  std::size_t n = 0;
  bool batched = false;  // The monitor (row name "batched") or the loop.
  double seconds = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = ApplyThreadFlag(&argc, argv);
  const bool smoke = ApplySmokeFlag(&argc, argv);
  const PollWindow window =
      smoke ? PollWindow{30, 0.05}
            : PollWindow{5, std::numeric_limits<double>::infinity()};

  struct Point {
    const char* shape;
    std::size_t n;
    bool run_baseline;
  };
  std::vector<Point> points;
  if (smoke) {
    points = {{"one_class", 100, true},
              {"one_class", 1000, true},
              {"k_classes", 1000, true},
              {"all_distinct", 200, true},
              {"added", 1000, true}};
  } else {
    points = {{"one_class", 100, true},      {"one_class", 1000, true},
              {"one_class", 10000, true},    {"one_class", 100000, true},
              {"one_class", 1000000, false},  // Baseline gated: ~minutes.
              {"k_classes", 1000, true},     {"k_classes", 10000, true},
              {"k_classes", 100000, true},   {"all_distinct", 1000, true},
              {"all_distinct", 10000, true}, {"added", 1000, true},
              {"added", 100000, true}};
    std::fprintf(stderr,
                 "[cap] per-constraint baseline skipped at n=10^6 and "
                 "all_distinct capped at 10^4 (registering 10^5+ classes "
                 "dominates the run)\n");
  }

  std::vector<Run> runs;
  std::int64_t next_key = 5'000'000;
  DcSatOptions poll_options;
  poll_options.num_threads = threads;
  for (const Point& point : points) {
    {
      BlockchainDatabase db = MakeDatabase();
      ConstraintMonitor monitor(&db);
      std::vector<MonitorHandle> handles;
      Stopwatch reg_watch;
      if (!RegisterFleet(monitor, point.shape, point.n, &handles)) return 1;
      const double reg_seconds = reg_watch.ElapsedSeconds();
      double first = 0;
      const double median = TimedPolls(db, window, &next_key, [&] {
        if (!monitor.Poll(poll_options).ok()) std::abort();
      }, &first);
      runs.push_back({point.shape, point.n, true, median});
      std::fprintf(stderr,
                   "%-13s n=%-8zu %-15s register %8.4fs (%7.3f us/member)  "
                   "poll median %10.3f ms  first %10.3f ms  (classes=%zu, "
                   "batched=%zu, evaluated=%zu, searched=%zu)\n",
                   point.shape, point.n, "batched", reg_seconds,
                   reg_seconds * 1e6 / static_cast<double>(point.n),
                   median * 1e3, first * 1e3,
                   monitor.num_classes(),
                   monitor.poll_stats().constraints_batched,
                   monitor.poll_stats().constraints_evaluated,
                   monitor.poll_stats().searches);
      const std::size_t disagreements =
          CountDisagreements(monitor, handles, db);
      if (disagreements > 0) {
        std::fprintf(stderr,
                     "FAIL: %zu monitor verdicts disagree with the "
                     "per-constraint baseline (%s n=%zu)\n",
                     disagreements, point.shape, point.n);
        return 1;
      }
    }
    if (!point.run_baseline) continue;
    // The baseline grounds and analyzes every member up front, as a monitor
    // without class plans did at Bind.
    BlockchainDatabase db = MakeDatabase();
    DcSatEngine engine(&db);
    std::vector<DenialConstraint> members;
    std::vector<AnalysisReport> reports;
    Stopwatch reg_watch;
    members.reserve(point.n);
    reports.reserve(point.n);
    for (std::size_t i = 0; i < point.n; ++i) {
      members.push_back(GroundedMember(i));
      reports.push_back(engine.Analyze(members.back()));
    }
    const double reg_seconds = reg_watch.ElapsedSeconds();
    std::vector<Verdict> verdicts(point.n);
    const double median = TimedPolls(db, window, &next_key, [&] {
      engine.PrepareSteadyState();
      for (std::size_t i = 0; i < point.n; ++i) {
        verdicts[i] = PerConstraintVerdict(engine, db, members[i], reports[i]);
      }
    });
    runs.push_back({point.shape, point.n, false, median});
    std::fprintf(stderr,
                 "%-13s n=%-8zu %-15s register %8.4fs (%7.3f us/member)  "
                 "poll median %10.3f ms\n",
                 point.shape, point.n, "per_constraint", reg_seconds,
                 reg_seconds * 1e6 / static_cast<double>(point.n),
                 median * 1e3);
  }

  auto find_run = [&](const std::string& shape, std::size_t n,
                      bool batched) -> const Run* {
    for (const Run& run : runs) {
      if (run.shape == shape && run.n == n && run.batched == batched) {
        return &run;
      }
    }
    return nullptr;
  };

  std::vector<BenchJsonRow> rows;
  for (const Run& run : runs) {
    const Run* baseline = find_run(run.shape, run.n, false);
    BenchJsonRow row;
    row.dataset = run.shape + "_n" + std::to_string(run.n) +
                  (smoke ? "_smoke" : "");
    row.workload = run.batched ? "batched" : "per_constraint";
    row.threads = threads;
    row.seconds = run.seconds;
    row.speedup = (baseline != nullptr && run.seconds > 0)
                      ? baseline->seconds / run.seconds
                      : 1.0;
    row.satisfied = false;
    rows.push_back(row);
  }
  WriteBenchJson("BENCH_monitor_fanout.json", rows);

  // The acceptance bound: at 10^5 members in one class a monitor poll must
  // be at least 20x cheaper than the per-constraint loop.
  if (!smoke) {
    const Run* batched = find_run("one_class", 100000, true);
    const Run* baseline = find_run("one_class", 100000, false);
    if (batched == nullptr || baseline == nullptr || batched->seconds <= 0) {
      std::fprintf(stderr, "FAIL: missing 10^5 one_class measurements\n");
      return 1;
    }
    const double speedup = baseline->seconds / batched->seconds;
    std::fprintf(stderr, "[acceptance] one_class n=100000: %.1fx\n", speedup);
    if (speedup < 20.0) {
      std::fprintf(stderr, "FAIL: monitor speedup %.1fx < 20x\n", speedup);
      return 1;
    }
  }
  return 0;
}
