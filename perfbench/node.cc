// The measured process of the benchmark: a node that comes up from its
// durable store and serves one workload from a single client thread.
//
//   perfbench_node --phase setup --workload W --data DIR --work DIR
//   perfbench_node --phase serve --workload W --data DIR --work DIR
//                  --repeats N [--intervals K] --trace 0|1 [--spans FILE]
//
// --data holds the inputs perfbench_gen wrote, including the pristine store;
// before every set-up the node copies that store into --work and opens the
// copy, so each set-up recovers the same files. `--phase setup` times one
// set-up and exits: run.py starts several, each in a fresh process, so no
// set-up finds the value pool or the heap warmed by another. `--phase serve`
// times its own set-up, then the workload: --repeats passes over the ad-hoc
// texts, or --repeats replays of the first --intervals intervals of the
// script, each from a freshly recovered store.
//
// The node calls only user-facing entry points: ParseDenialConstraint,
// CompiledQuery, DcSatEngine::Check / Analyze / PrepareSteadyState, the
// ConstraintMonitor registration and Poll API, the BlockchainDatabase
// mutation API, IsPossibleWorld and DurableStore. Every option stays at its
// default except num_threads = 1.
//
// The last line of stdout is one JSON object with the end-to-end metrics,
// the request counts and the answer-check outcome. With --trace 1 every
// second request records spans around each call into the library, written
// to --spans for layers.py.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sched.h>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bitcoin/to_relational.h"
#include "core/blockchain_db.h"
#include "core/dcsat.h"
#include "core/monitor.h"
#include "core/possible_worlds.h"
#include "core/transaction.h"
#include "query/compiled_query.h"
#include "query/parser.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "relational/value_pool.h"
#include "relational/world_view.h"
#include "storage/durable_store.h"
#include "util/status.h"

namespace {

using namespace bcdb;
using storage::DurableStore;
using Clock = std::chrono::steady_clock;
using Verdict = ConstraintMonitor::Verdict;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench_node: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Inputs.

std::vector<std::string> Split(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  return fields;
}

Value DecodeValue(const std::string& field) {
  if (!field.empty() && field[0] == 'i') {
    return Value::Int(std::strtoll(field.c_str() + 1, nullptr, 10));
  }
  return Value::Str(field.substr(1));
}

struct Request {
  std::string expect;  // "possible" or "impossible".
  std::string text;
};

struct Op {
  char kind;          // a p d u c r (see perfbench_gen).
  std::int64_t arg;   // Pending id or coinbase txid.
};

struct Member {
  std::size_t class_index;
  std::string text;  // The grounded constraint, for the fleet cross-check.
  std::vector<Value> binding;
};

struct Inputs {
  std::vector<Request> adhoc;
  std::vector<Request> aggregate;
  std::vector<std::pair<std::string, std::string>> standing;
  std::vector<std::pair<std::string, std::string>> classes;
  std::vector<Member> members;
  std::vector<std::string> adds;
  /// Arrival transactions, still as raw fields: tuples intern their values,
  /// which must not happen before the store has been recovered.
  std::vector<std::vector<std::string>> arrivals;
  std::vector<std::vector<Op>> intervals;
};

Inputs ReadInputs(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("read inputs", Status::NotFound(path));
  Inputs inputs;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> f = Split(line);
    const std::string& tag = f[0];
    if (tag == "adhoc" || tag == "aggregate") {
      (tag == "adhoc" ? inputs.adhoc : inputs.aggregate)
          .push_back(Request{f.at(1), f.at(2)});
    } else if (tag == "standing") {
      inputs.standing.emplace_back(f.at(1), f.at(2));
    } else if (tag == "class") {
      inputs.classes.emplace_back(f.at(1), f.at(2));
    } else if (tag == "bind") {
      Member member{std::strtoull(f.at(1).c_str(), nullptr, 10), f.at(2), {}};
      for (std::size_t i = 3; i < f.size(); ++i) {
        member.binding.push_back(DecodeValue(f[i]));
      }
      inputs.members.push_back(std::move(member));
    } else if (tag == "add") {
      inputs.adds.push_back(f.at(1));
    } else if (tag == "txn") {
      inputs.arrivals.push_back(std::move(f));
    } else if (tag == "interval") {
      std::vector<Op> ops;
      std::istringstream tokens(f.size() > 1 ? f[1] : "");
      std::string token;
      while (tokens >> token) {
        ops.push_back(Op{token[0], token.size() > 1
                                       ? std::strtoll(token.c_str() + 1,
                                                      nullptr, 10)
                                       : 0});
      }
      inputs.intervals.push_back(std::move(ops));
    }
  }
  return inputs;
}

Transaction BuildTransaction(const std::vector<std::string>& f) {
  Transaction txn(f.at(1));
  std::size_t i = 2;
  while (i < f.size()) {
    const std::string& relation = f[i];
    const std::size_t arity = std::strtoull(f.at(i + 1).c_str(), nullptr, 10);
    std::vector<Value> values;
    for (std::size_t k = 0; k < arity; ++k) {
      values.push_back(DecodeValue(f.at(i + 2 + k)));
    }
    txn.Add(relation, Tuple(values));
    i += 2 + arity;
  }
  return txn;
}

Tuple Coinbase(std::int64_t txid) {
  return Tuple({Value::Int(txid), Value::Int(1), Value::Str("BenchMinerPk"),
                Value::Int(50 * 100'000'000LL)});
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at the end.

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_request(std::int64_t request) { request_ = request; }

  int Begin(const char* name, bool standalone = false) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, current_, request_, standalone, {}});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void End(int span) {
    if (span < 0) return;
    spans_[span].end_ns = NowNs();
    current_ = spans_[span].parent;
  }

  void Count(int span, const char* key, double value) {
    if (span < 0) return;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s=%.17g",
                  spans_[span].counters.empty() ? "" : ";", key, value);
    spans_[span].counters += buf;
  }

  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu\t%d\t%lld\t%s\t%lld\t%lld\t%d\t%s\n", i, s.parent,
                   static_cast<long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.standalone ? 1 : 0,
                   s.counters.c_str());
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t request;
    bool standalone;
    std::string counters;
  };
  bool enabled_ = false;
  int current_ = -1;
  std::int64_t request_ = -1;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, bool standalone = false)
      : tracer_(tracer), span_(tracer.Begin(name, standalone)) {}
  ~Scope() { tracer_.End(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void Count(const char* key, double value) { tracer_.Count(span_, key, value); }

 private:
  Tracer& tracer_;
  int span_;
};

/// Durability sink that times each Persist call into the store.
class TracedSink : public DurabilitySink {
 public:
  TracedSink(DurableStore* store, Tracer* tracer)
      : store_(store), tracer_(tracer) {}
  void Persist(const MutationEvent& event,
               const MutationPayload& payload) override {
    Scope scope(*tracer_, "storage.persist");
    store_->Persist(event, payload);
  }

 private:
  DurableStore* store_;
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// The node.

DcSatOptions CheckOptions() {
  DcSatOptions options;
  options.num_threads = 1;
  return options;
}

struct Node {
  std::unique_ptr<DurableStore> store;
  std::unique_ptr<BlockchainDatabase> db;
  std::unique_ptr<DcSatEngine> engine;
  std::unique_ptr<ConstraintMonitor> monitor;
  std::unique_ptr<TracedSink> traced_sink;
  std::vector<MonitorHandle> handles;  // Standing set / fleet members.
  std::vector<std::string> texts;      // Grounded text per handle.

  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node() {
    monitor.reset();
    engine.reset();
    if (db != nullptr) db->AttachDurabilitySink(nullptr);
  }
};

std::unique_ptr<BlockchainDatabase> Recover(DurableStore& store) {
  StatusOr<ConstraintSet> constraints =
      bitcoin::MakeBitcoinConstraints(store.catalog());
  if (!constraints.ok()) Die("constraints", constraints.status());
  StatusOr<BlockchainDatabase> db = store.Recover(std::move(*constraints));
  if (!db.ok()) Die("recover", db.status());
  return std::make_unique<BlockchainDatabase>(std::move(*db));
}

/// Registers the standing set of `workload` into `node.monitor`.
void RegisterStanding(const std::string& workload, const Inputs& inputs,
                      Node& node) {
  ConstraintMonitor& monitor = *node.monitor;
  if (workload != "fleet") {
    for (const auto& [label, text] : inputs.standing) {
      StatusOr<MonitorHandle> handle = monitor.Add(label, text);
      if (!handle.ok()) Die("add " + label, handle.status());
      node.handles.push_back(*handle);
      node.texts.push_back(text);
    }
    return;
  }
  std::vector<TemplateHandle> classes;
  for (const auto& [label, text] : inputs.classes) {
    StatusOr<TemplateHandle> handle = monitor.RegisterTemplate(label, text);
    if (!handle.ok()) Die("register " + label, handle.status());
    classes.push_back(*handle);
  }
  for (const Member& member : inputs.members) {
    StatusOr<MonitorHandle> handle =
        monitor.Bind(classes.at(member.class_index), member.binding);
    if (!handle.ok()) Die("bind " + member.text, handle.status());
    node.handles.push_back(*handle);
    node.texts.push_back(member.text);
  }
  for (std::size_t i = 0; i < inputs.adds.size(); ++i) {
    StatusOr<MonitorHandle> handle =
        monitor.Add("aggregate" + std::to_string(i), inputs.adds[i]);
    if (!handle.ok()) Die("add " + inputs.adds[i], handle.status());
    node.handles.push_back(*handle);
    node.texts.push_back(inputs.adds[i]);
  }
}

/// Brings the node up from its store: open + recover, then the steady-state
/// build (an engine for the ad-hoc workloads; the monitor's registration and
/// first poll for the standing workloads).
std::unique_ptr<Node> StartNode(const std::string& workload,
                                const Inputs& inputs,
                                const std::string& store_dir, Tracer& tracer) {
  auto node = std::make_unique<Node>();
  {
    Scope recover(tracer, "storage.recover");
    StatusOr<std::unique_ptr<DurableStore>> store =
        DurableStore::Open(store_dir, bitcoin::MakeBitcoinCatalog());
    if (!store.ok()) Die("open store", store.status());
    node->store = std::move(*store);
    node->db = Recover(*node->store);
  }
  if (tracer.enabled()) {
    node->traced_sink =
        std::make_unique<TracedSink>(node->store.get(), &tracer);
    node->db->AttachDurabilitySink(node->traced_sink.get());
  } else {
    node->db->AttachDurabilitySink(node->store.get());
  }
  if (workload == "adhoc" || workload == "aggregate") {
    Scope prepare(tracer, "steady.prepare");
    node->engine = std::make_unique<DcSatEngine>(node->db.get());
    node->engine->PrepareSteadyState();
    return node;
  }
  node->monitor = std::make_unique<ConstraintMonitor>(node->db.get());
  {
    Scope reg(tracer, "monitor.register");
    RegisterStanding(workload, inputs, *node);
  }
  Scope poll(tracer, "monitor.first_poll");
  StatusOr<std::vector<ConstraintMonitor::Change>> changes =
      node->monitor->Poll(CheckOptions());
  if (!changes.ok()) Die("first poll", changes.status());
  return node;
}

// ---------------------------------------------------------------------------
// Answer checks (outside the timed sections).

/// Re-validates a "possible" answer: the witness is a possible world and q
/// holds in it.
bool WitnessHolds(const BlockchainDatabase& db, const DenialConstraint& q,
                  const std::vector<PendingId>& witness) {
  if (!IsPossibleWorld(db, witness)) return false;
  StatusOr<CompiledQuery> compiled = CompiledQuery::Compile(q, &db.database());
  if (!compiled.ok()) return false;
  WorldView world = db.BaseView();
  for (PendingId id : witness) world.Activate(static_cast<TupleOwner>(id));
  return compiled->Evaluate(world);
}

std::uint64_t AnswerDigest(const DcSatResult& result) {
  std::uint64_t h = result.satisfied ? 1469598103934665603ull : 7;
  if (result.witness.has_value()) {
    for (PendingId id : *result.witness) h = (h ^ id) * 1099511628211ull;
  }
  return h;
}

/// A grounded verdict decided from scratch: the fleet cross-check.
StatusOr<Verdict> FreshVerdict(const BlockchainDatabase& db,
                               const std::string& text) {
  StatusOr<DenialConstraint> q = ParseDenialConstraint(text);
  if (!q.ok()) return q.status();
  StatusOr<CompiledQuery> compiled = CompiledQuery::Compile(*q, &db.database());
  if (!compiled.ok()) return compiled.status();
  if (compiled->Evaluate(db.BaseView())) return Verdict::kHappened;
  DcSatEngine engine(&db);
  StatusOr<DcSatResult> result = engine.Check(*q, CheckOptions());
  if (!result.ok()) return result.status();
  if (!result->decided) return Verdict::kUndecided;
  return result->satisfied ? Verdict::kImpossible : Verdict::kPossible;
}

// ---------------------------------------------------------------------------
// Measurement.

/// The latencies of a run. Every distinct request of a run (an ad-hoc text,
/// or one interval of the script replayed from the same recovered store)
/// runs the same number of times, and the end-to-end metrics read each
/// one's best untraced time. Interference from the rest of the host only
/// ever adds time, so the best of several repeats is the estimate of a
/// request's cost that the host's slow stretches move least (Chen & Revels,
/// "Robust benchmarking in noisy environments", 2016).
struct Samples {
  explicit Samples(std::size_t distinct)
      : best(distinct, std::numeric_limits<double>::infinity()),
        repeats(distinct, 0) {}

  void Record(std::size_t request, bool traced, double latency) {
    if (traced) {
      traced_seconds += latency;
      ++traced_count;
      return;
    }
    untraced_seconds += latency;
    ++untraced_count;
    best[request] = std::min(best[request], latency);
    ++repeats[request];
  }

  std::size_t attempted() const { return untraced_count + traced_count; }

  std::vector<double> best;            // Seconds, over untraced repeats.
  std::vector<std::size_t> repeats;    // Untraced repeats per request.
  double untraced_seconds = 0;
  double traced_seconds = 0;
  std::size_t untraced_count = 0;
  std::size_t traced_count = 0;
};

/// Which requests a run traces. A traced run alternates, shifting by one
/// each repeat, so every request is traced in half of its repeats and the
/// untraced and traced requests sample the same stretch of the run: the
/// difference between them is the tracing overhead.
enum class Tracing { kOff, kAlternate, kAll };

bool TraceRequest(Tracing tracing, std::size_t request, std::size_t repeat) {
  return tracing == Tracing::kAll ||
         (tracing == Tracing::kAlternate && (request + repeat) % 2 == 1);
}

/// Moves the client thread to the next CPU this process may use, in turn.
/// A repeat's CPU changes from repeat to repeat, so a request's best time
/// is taken over several CPUs as well as over the run: on a shared host one
/// CPU can run slow for seconds while the others do not.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t checks = 0;
  std::vector<std::string> notes;

  void Fail(const std::string& note) {
    ++failed;
    if (notes.size() < 8) notes.push_back(note);
  }
};

/// Layer probes run beside (never inside) a traced request, marked
/// standalone: they repeat work the request does inside one library call.
void ProbeQuery(Tracer& tracer, Node& node, DcSatEngine& engine,
                const std::string& text) {
  StatusOr<DenialConstraint> q = Status::Internal("not parsed");
  {
    Scope parse(tracer, "query.parse", /*standalone=*/true);
    q = ParseDenialConstraint(text);
  }
  if (!q.ok()) return;
  std::optional<CompiledQuery> compiled;
  {
    Scope compile(tracer, "query.compile", /*standalone=*/true);
    StatusOr<CompiledQuery> c = CompiledQuery::Compile(*q, &node.db->database());
    if (c.ok()) compiled.emplace(std::move(*c));
  }
  if (compiled.has_value()) {
    Scope eval(tracer, "query.eval_union", /*standalone=*/true);
    eval.Count("true", compiled->Evaluate(node.db->PendingUnionView()) ? 1 : 0);
  }
  {
    Scope analyze(tracer, "analysis.analyze", /*standalone=*/true);
    engine.Analyze(*q);
  }
}

void ProbeSteady(Tracer& tracer, DcSatEngine& engine) {
  const SteadyStateStats before = engine.steady_state_stats();
  Scope refresh(tracer, "steady.refresh", /*standalone=*/true);
  engine.PrepareSteadyState();
  const SteadyStateRefresh& last = engine.last_refresh();
  const SteadyStateStats& after = engine.steady_state_stats();
  refresh.Count("refreshed", last.refreshed ? 1 : 0);
  refresh.Count("events", static_cast<double>(last.events_applied));
  refresh.Count("cascade", static_cast<double>(last.cascade_invalidated.size()));
  refresh.Count("full_rebuilds",
                static_cast<double>(after.full_rebuilds - before.full_rebuilds));
  const auto fallbacks = [](const SteadyStateStats& s) {
    return s.fallbacks_batch_too_large + s.fallbacks_missed_events +
           s.fallbacks_base_insert + s.fallbacks_applied_in_batch;
  };
  refresh.Count("fallbacks",
                static_cast<double>(fallbacks(after) - fallbacks(before)));
}

StatusOr<DcSatResult> TracedCheck(Tracer& tracer, DcSatEngine& engine,
                                  const DenialConstraint& q,
                                  bool standalone) {
  Scope check(tracer, "dcsat.check", standalone);
  StatusOr<DcSatResult> result = engine.Check(q, CheckOptions());
  if (result.ok() && tracer.enabled()) {
    const DcSatStats& s = result->stats;
    check.Count("total_s", s.total_seconds);
    check.Count("graph_s", s.graph_seconds);
    check.Count("cliques", static_cast<double>(s.num_cliques));
    check.Count("worlds", static_cast<double>(s.num_worlds_evaluated));
    check.Count("components", static_cast<double>(s.num_components));
    check.Count("covered", static_cast<double>(s.num_components_covered));
    check.Count("precheck_decided", s.precheck_decided ? 1 : 0);
    check.Count("steady_cache_hit", s.steady_cache_hit ? 1 : 0);
  }
  return result;
}

/// The ad-hoc workloads: one request = ParseDenialConstraint + Check.
class AdhocRunner {
 public:
  AdhocRunner(Node& node, const std::vector<Request>& requests)
      : node_(node), requests_(requests) {}

  /// Runs `repeats` passes over the requests.
  void Run(std::size_t repeats, Tracer& tracer, Tracing tracing,
           Samples& samples, Outcome& outcome) {
    CpuRotation rotation;
    for (std::size_t pass = 0; pass < repeats; ++pass) {
      rotation.Next();
      for (std::size_t index = 0; index < requests_.size(); ++index) {
        Serve(pass, index, tracer, TraceRequest(tracing, index, pass), samples,
              outcome);
      }
    }
  }

 private:
  void Serve(std::size_t pass, std::size_t index, Tracer& tracer, bool traced,
             Samples& samples, Outcome& outcome) {
    const Request& request = requests_[index];
    tracer.set_enabled(traced);
    tracer.set_request(static_cast<std::int64_t>(pass * requests_.size() + index));
    StatusOr<DenialConstraint> q = Status::Internal("not parsed");
    StatusOr<DcSatResult> result = Status::Internal("not checked");
    const std::int64_t start = NowNs();
    {
      Scope span(tracer, "request");
      {
        Scope parse(tracer, "query.parse");
        q = ParseDenialConstraint(request.text);
      }
      if (q.ok()) result = TracedCheck(tracer, *node_.engine, *q, false);
    }
    samples.Record(index, traced, SecondsSince(start));
    if (traced && q.ok()) {
      ProbeQuery(tracer, node_, *node_.engine, request.text);
      ProbeSteady(tracer, *node_.engine);
    }
    tracer.set_enabled(false);
    Verify(index, q, result, outcome);
  }

  void Verify(std::size_t index, const StatusOr<DenialConstraint>& q,
              const StatusOr<DcSatResult>& result, Outcome& outcome) {
    const Request& request = requests_[index];
    if (!q.ok() || !result.ok()) {
      outcome.Fail("error: " + (q.ok() ? result.status() : q.status()).ToString());
      return;
    }
    if (!result->decided) {
      outcome.Fail("undecided: " + request.text);
      return;
    }
    const bool possible = !result->satisfied;
    if (possible != (request.expect == "possible")) {
      outcome.Fail("wrong verdict: " + request.text);
      return;
    }
    // The data is static, so an answer repeats bit for bit: the first answer
    // to each text is validated in full, later ones must equal it.
    const std::uint64_t digest = AnswerDigest(*result);
    auto [seen, inserted] = digests_.emplace(index, digest);
    if (!inserted) {
      if (seen->second == digest) return;
      outcome.Fail("answer changed between repeats: " + request.text);
      return;
    }
    if (possible && (!result->witness.has_value() ||
                     !WitnessHolds(*node_.db, *q, *result->witness))) {
      outcome.Fail("witness does not hold: " + request.text);
    }
  }

  Node& node_;
  const std::vector<Request>& requests_;
  std::unordered_map<std::size_t, std::uint64_t> digests_;
};

/// The standing workloads: one request = one block interval of mutations
/// followed by one Poll.
class IntervalRunner {
 public:
  /// Builds the arrival transactions; tuples intern their values, so this
  /// runs after the first recovery.
  explicit IntervalRunner(const Inputs& inputs) : inputs_(inputs) {
    arrivals_.reserve(inputs.arrivals.size());
    for (const auto& fields : inputs.arrivals) {
      arrivals_.push_back(BuildTransaction(fields));
    }
  }

  /// Replays the first `intervals` intervals of the script on `node`, which
  /// has just been recovered from the pristine store. Replay `episode` of a
  /// run must leave every standing verdict as replay 0 did after each
  /// interval. With tracing on, `probe_engine` is an engine the benchmark
  /// holds for the standalone probes; it is refreshed after every interval
  /// so each refresh covers one interval's events.
  void Run(Node& node, std::size_t episode, std::size_t intervals,
           Tracer& tracer, Tracing tracing, DcSatEngine* probe_engine,
           Samples& samples, Outcome& outcome) {
    next_arrival_ = 0;
    for (std::size_t index = 0; index < intervals; ++index) {
      const bool traced = TraceRequest(tracing, index, episode);
      tracer.set_enabled(traced);
      tracer.set_request(
          static_cast<std::int64_t>(1'000'000 + episode * intervals + index));
      std::string error;
      const ConstraintMonitor::PollStats before = node.monitor->poll_stats();
      const std::int64_t start = NowNs();
      {
        Scope span(tracer, "request");
        for (const Op& op : inputs_.intervals[index]) {
          Status status = Apply(*node.db, tracer, op);
          if (!status.ok() && error.empty()) error = status.ToString();
        }
        Scope poll(tracer, "monitor.poll");
        StatusOr<std::vector<ConstraintMonitor::Change>> changes =
            node.monitor->Poll(CheckOptions());
        if (!changes.ok() && error.empty()) error = changes.status().ToString();
        if (tracer.enabled()) {
          const ConstraintMonitor::PollStats after = node.monitor->poll_stats();
          poll.Count("evaluated", static_cast<double>(after.constraints_evaluated -
                                                      before.constraints_evaluated));
          poll.Count("skipped", static_cast<double>(after.constraints_skipped -
                                                    before.constraints_skipped));
          poll.Count("classes", static_cast<double>(after.classes_evaluated -
                                                    before.classes_evaluated));
          poll.Count("batched", static_cast<double>(after.constraints_batched -
                                                    before.constraints_batched));
          poll.Count("compile_misses",
                     static_cast<double>(after.compile_cache_misses -
                                         before.compile_cache_misses));
          poll.Count("undecided", static_cast<double>(after.undecided_verdicts -
                                                      before.undecided_verdicts));
        }
      }
      samples.Record(index, traced, SecondsSince(start));
      const ConstraintMonitor::PollStats after = node.monitor->poll_stats();
      if (error.empty() && after.undecided_verdicts != before.undecided_verdicts) {
        error = "undecided verdicts in poll";
      }
      if (error.empty() && !SameVerdictsAsFirstReplay(node, index)) {
        error = "standing verdicts differ from the first replay";
      }
      if (!error.empty()) {
        outcome.Fail("interval " + std::to_string(index) + ": " + error);
      }
      if (probe_engine != nullptr) {
        // Untraced intervals refresh too (unrecorded), so every recorded
        // refresh covers exactly one interval's events.
        ProbeSteady(tracer, *probe_engine);
        const std::string& text = node.texts[index % node.texts.size()];
        StatusOr<DenialConstraint> q = ParseDenialConstraint(text);
        if (q.ok()) {
          (void)TracedCheck(tracer, *probe_engine, *q, /*standalone=*/true);
        }
        ProbeQuery(tracer, node, *probe_engine, text);
      }
      tracer.set_enabled(false);
    }
  }

 private:
  /// Records the standing verdicts after interval `index` on the first
  /// replay; compares with them on later replays.
  bool SameVerdictsAsFirstReplay(const Node& node, std::size_t index) {
    std::uint64_t h = 1469598103934665603ull;
    for (MonitorHandle handle : node.handles) {
      h = (h ^ static_cast<std::uint64_t>(node.monitor->verdict(handle))) *
          1099511628211ull;
    }
    if (index == verdicts_.size()) verdicts_.push_back(h);
    return verdicts_[index] == h;
  }

  Status Apply(BlockchainDatabase& db, Tracer& tracer, const Op& op) {
    const PendingId id = static_cast<PendingId>(op.arg);
    switch (op.kind) {
      case 'a': {
        Scope span(tracer, "db.add");
        const PendingId expected = db.num_pending();
        StatusOr<PendingId> added = db.AddPending(arrivals_.at(next_arrival_++));
        if (!added.ok()) return added.status();
        if (*added != expected) return Status::Internal("unexpected pending id");
        return Status::OK();
      }
      case 'p': {
        Scope span(tracer, "db.apply");
        return db.ApplyPending(id);
      }
      case 'd': {
        Scope span(tracer, "db.discard");
        return db.DiscardPending(id);
      }
      case 'u': {
        Scope span(tracer, "db.unapply");
        return db.UnapplyPending(id);
      }
      case 'c': {
        Scope span(tracer, "db.insert");
        return db.InsertCurrent(bitcoin::kTxOut, Coinbase(op.arg));
      }
      case 'r': {
        Scope span(tracer, "db.remove");
        return db.RemoveCurrent(bitcoin::kTxOut, Coinbase(op.arg));
      }
    }
    return Status::InvalidArgument(std::string("unknown op ") + op.kind);
  }

  const Inputs& inputs_;
  std::vector<Transaction> arrivals_;
  std::size_t next_arrival_ = 0;
  std::vector<std::uint64_t> verdicts_;  // Per interval, from replay 0.
};

/// Stream durability check: the recovered database matches the live one.
void CheckDurability(const std::string& store_dir, const Inputs& inputs,
                     const std::string& workload, Node& live, Outcome& outcome) {
  Status synced = live.store->Sync();
  ++outcome.checks;
  if (!synced.ok() || !live.store->status().ok()) {
    outcome.Fail("sync: " + synced.ToString());
    return;
  }
  std::vector<Verdict> verdicts;
  for (MonitorHandle handle : live.handles) {
    verdicts.push_back(live.monitor->verdict(handle));
  }
  live.monitor.reset();
  live.db->AttachDurabilitySink(nullptr);
  live.store.reset();

  Tracer off;
  std::unique_ptr<Node> recovered = StartNode(workload, inputs, store_dir, off);
  const BlockchainDatabase& a = *live.db;
  const BlockchainDatabase& b = *recovered->db;
  std::string mismatch;
  if (a.num_pending() != b.num_pending()) {
    mismatch = "pending slot count";
  } else {
    for (PendingId id = 0; id < a.num_pending() && mismatch.empty(); ++id) {
      if (a.pending_state(id) != b.pending_state(id)) {
        mismatch = "state of pending id " + std::to_string(id);
      }
    }
  }
  for (std::size_t r = 0; r < a.database().num_relations() && mismatch.empty();
       ++r) {
    if (a.database().relation(r).num_tuples() !=
        b.database().relation(r).num_tuples()) {
      mismatch = "tuple count of relation " + std::to_string(r);
    }
  }
  for (std::size_t i = 0; i < verdicts.size() && mismatch.empty(); ++i) {
    if (recovered->monitor->verdict(recovered->handles[i]) != verdicts[i]) {
      mismatch = "standing verdict of " + live.texts[i];
    }
  }
  if (!mismatch.empty()) {
    outcome.Fail("recovered database differs: " + mismatch);
  }
}

/// Fleet cross-check: a deterministic sample of members re-decided by a
/// fresh grounded check.
void CheckFleetSample(Node& node, Outcome& outcome) {
  constexpr std::size_t kSample = 64;
  const std::size_t stride = std::max<std::size_t>(1, node.handles.size() / kSample);
  for (std::size_t i = 0; i < node.handles.size(); i += stride) {
    ++outcome.checks;
    StatusOr<Verdict> fresh = FreshVerdict(*node.db, node.texts[i]);
    const Verdict polled = node.monitor->verdict(node.handles[i]);
    if (!fresh.ok() || *fresh != polled) {
        outcome.Fail(std::string("fleet member disagrees with a fresh check: ") +
                   node.texts[i] + " (monitor " +
                   ConstraintMonitor::VerdictToString(polled) + ")");
    }
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// The end-to-end latency figures of a run, over the requests' best times.
struct Latency {
  double p50_s = 0;
  double tail_s = 0;
  double tail_percentile = 100;  // Of the untraced request samples.
  double requests_per_s = 0;
};

/// Each untraced sample counts at its request's best time. The tail is the
/// highest percentile of those samples with at least 10 samples beyond it;
/// requests_per_s is the samples' count over their summed time.
Latency Summarize(const Samples& samples) {
  std::vector<std::pair<double, std::size_t>> slowest_first;
  std::vector<double> bests;
  std::size_t count = 0;
  double busy = 0;
  for (std::size_t i = 0; i < samples.best.size(); ++i) {
    if (samples.repeats[i] == 0) continue;
    slowest_first.emplace_back(samples.best[i], samples.repeats[i]);
    bests.push_back(samples.best[i]);
    count += samples.repeats[i];
    busy += samples.best[i] * static_cast<double>(samples.repeats[i]);
  }
  Latency latency;
  if (count == 0) return latency;
  std::sort(slowest_first.rbegin(), slowest_first.rend());
  latency.p50_s = Median(bests);
  std::size_t beyond = 0;
  latency.tail_s = slowest_first.back().first;
  for (const auto& [best, repeats] : slowest_first) {
    if (beyond >= 10) {
      latency.tail_s = best;
      break;
    }
    beyond += repeats;
  }
  latency.tail_percentile =
      100.0 * static_cast<double>(count - std::min(beyond, count)) /
      static_cast<double>(count);
  latency.requests_per_s = static_cast<double>(count) / busy;
  return latency;
}

struct Args {
  std::string phase;
  std::string workload;
  std::string data;
  std::string work;
  std::string spans;
  std::size_t repeats = 0;
  std::size_t intervals = 0;
  std::string trace;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr, "perfbench_node: %s\n", problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--phase") {
      args.phase = value;
    } else if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--data") {
      args.data = value;
    } else if (flag == "--work") {
      args.work = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--repeats") {
      args.repeats = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--intervals") {
      args.intervals = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      args.trace = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  const std::string& w = args.workload;
  if (w != "adhoc" && w != "aggregate" && w != "stream" && w != "fleet") {
    Usage("unknown workload '" + w + "'");
  }
  if (args.data.empty() || args.work.empty()) {
    Usage("--data and --work are required");
  }
  if (args.phase == "setup") return args;
  if (args.phase != "serve") Usage("--phase must be setup or serve");
  if (args.repeats == 0) Usage("--phase serve needs --repeats N > 0");
  const bool standing = w == "stream" || w == "fleet";
  if (standing != (args.intervals > 0)) {
    Usage("--intervals K > 0 is required on stream and fleet only");
  }
  if (args.trace != "0" && args.trace != "1") Usage("--trace must be 0 or 1");
  if ((args.trace == "1") != !args.spans.empty()) {
    Usage("--spans is required with --trace 1 only");
  }
  return args;
}

/// A fresh copy of the pristine store in the work directory.
std::string FreshStore(const Args& args) {
  namespace fs = std::filesystem;
  const fs::path store = fs::path(args.work) / "store";
  std::error_code error;
  fs::remove_all(store, error);
  if (!error) {
    fs::copy(fs::path(args.data) / "store", store, fs::copy_options::recursive,
             error);
  }
  if (error) Die("copy store", Status::Internal(error.message()));
  return store.string();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Inputs inputs = ReadInputs(args.data + "/inputs.tsv");
  const bool trace = args.trace == "1";

  // Set-up: this process's one, from a cold start.
  Tracer tracer;
  tracer.set_enabled(trace);
  std::string store_dir = FreshStore(args);
  const std::int64_t setup_start = NowNs();
  std::unique_ptr<Node> node = StartNode(args.workload, inputs, store_dir, tracer);
  const double setup_seconds = SecondsSince(setup_start);
  tracer.set_enabled(false);
  if (args.phase == "setup") {
    std::printf("{\"setup_s\": %.9g}\n", setup_seconds);
    return 0;
  }

  const bool adhoc_kind = args.workload == "adhoc" || args.workload == "aggregate";
  const std::vector<Request>& requests =
      args.workload == "adhoc" ? inputs.adhoc : inputs.aggregate;
  if (adhoc_kind && requests.empty()) {
    Die("inputs", Status::InvalidArgument("no requests for " + args.workload));
  }
  if (args.intervals > inputs.intervals.size()) {
    Die("inputs", Status::InvalidArgument("the interval script is too short"));
  }
  Outcome outcome;
  Samples samples(adhoc_kind ? requests.size() : args.intervals);
  const Tracing tracing = trace ? Tracing::kAlternate : Tracing::kOff;
  if (adhoc_kind) {
    AdhocRunner runner(*node, requests);
    runner.Run(args.repeats, tracer, tracing, samples, outcome);
  } else {
    // Every replay starts from the pristine store: the database grows with
    // every interval, so replays of one stretch of the script are the
    // repeats of the same requests.
    IntervalRunner runner(inputs);
    CpuRotation rotation;
    for (std::size_t episode = 0; episode < args.repeats; ++episode) {
      rotation.Next();
      if (episode > 0) {
        node.reset();
        store_dir = FreshStore(args);
        Tracer off;
        node = StartNode(args.workload, inputs, store_dir, off);
      }
      std::optional<DcSatEngine> probe_engine;
      if (trace) {
        probe_engine.emplace(node->db.get());
        probe_engine->PrepareSteadyState();
      }
      runner.Run(*node, episode, args.intervals, tracer, tracing,
                 probe_engine.has_value() ? &*probe_engine : nullptr, samples,
                 outcome);
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const std::size_t pool_size = ValuePool::Global().size();
  storage::DurableStoreStats store_stats = node->store->stats();

  // Answer checks that need the final state.
  if (args.workload == "fleet") CheckFleetSample(*node, outcome);
  if (args.workload == "stream") {
    CheckDurability(store_dir, inputs, args.workload, *node, outcome);
  }

  // The ad-hoc workloads do not write and keep no monitor; a short traced
  // probe of the interval script covers those layers in their trace.
  if (trace && adhoc_kind) {
    tracer.set_enabled(true);
    tracer.set_request(-2);
    Scope probe(tracer, "probe.write_side", /*standalone=*/true);
    node->engine.reset();
    node->monitor = std::make_unique<ConstraintMonitor>(node->db.get());
    {
      Scope reg(tracer, "monitor.register");
      RegisterStanding("stream", inputs, *node);
    }
    (void)node->monitor->Poll(CheckOptions());
    IntervalRunner probe_runner(inputs);
    DcSatEngine probe_engine(node->db.get());
    probe_engine.PrepareSteadyState();
    Samples probe_samples(8);
    Outcome probe_outcome;
    probe_runner.Run(*node, 0, 8, tracer, Tracing::kAll, &probe_engine,
                     probe_samples, probe_outcome);
    store_stats = node->store->stats();
  }

  const Latency latency = Summarize(samples);
  outcome.attempted = samples.attempted() + outcome.checks;
  const auto rate = [](std::size_t count, double seconds) {
    return seconds > 0 ? static_cast<double>(count) / seconds : 0.0;
  };
  if (trace && !tracer.Write(args.spans)) {
    Die("write spans", Status::Internal(args.spans));
  }
  for (const std::string& note : outcome.notes) {
    std::fprintf(stderr, "perfbench_node: FAILED %s\n", note.c_str());
  }
  std::printf(
      "{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %zu, "
      "\"failed\": %zu, "
      "\"metrics\": {\"setup_s\": %.9g, \"peak_rss_mb\": %.9g, "
      "\"request_ms_p50\": %.9g, \"request_ms_tail\": %.9g, "
      "\"requests_per_s\": %.9g}, "
      "\"info\": {\"distinct_requests\": %zu, \"repeats\": %zu, "
      "\"tail_percentile\": %.6g, \"untraced_samples\": %zu, "
      "\"request_seconds\": %.6g, "
      "\"sync_policy\": \"kGroup\", \"num_threads\": 1, "
      "\"untraced_requests_per_s\": %.9g, \"traced_requests_per_s\": %.9g, "
      "\"value_pool_size\": %zu, "
      "\"wal_bytes\": %llu, \"wal_records\": %llu, \"wal_syncs\": %llu, "
      "\"write_amp\": %.9g}}\n",
      args.workload.c_str(), outcome.failed == 0 ? "true" : "false",
      outcome.attempted, outcome.failed, setup_seconds, peak_rss_mb,
      latency.p50_s * 1e3, latency.tail_s * 1e3, latency.requests_per_s,
      samples.best.size(), args.repeats, latency.tail_percentile,
      samples.untraced_count,
      samples.untraced_seconds + samples.traced_seconds,
      rate(samples.untraced_count, samples.untraced_seconds),
      rate(samples.traced_count, samples.traced_seconds), pool_size,
      static_cast<unsigned long long>(store_stats.wal_bytes),
      static_cast<unsigned long long>(store_stats.wal_records),
      static_cast<unsigned long long>(store_stats.wal_syncs),
      store_stats.WriteAmplification());
  return 0;
}
