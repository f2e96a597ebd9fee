// Seeded, structure-aware mutation test of the parser, the analyzer, the
// compiler and the engine's compiled-query cache. Mutants of the
// examples/constraints corpus drop, duplicate and resize atoms, rename
// relations, plant wrong-typed constants, swap a constant between int and
// real, strand variables in negated atoms and comparisons, and malform
// aggregate and answer heads. Every mutant must come back as a Status or a
// report (never an abort), and a parameter-free mutant must pass the
// analyzer exactly when it compiles: both read one validator
// (ValidateQuery). So must a template mutant pass the template analyzer,
// and a monitor must Add a parameter-free mutant exactly when the analyzer
// accepts it, with an error-free class report. A mutant's display text
// parses back to an equal query, every error diagnostic carries a span,
// and a warm engine answers every mutant and its int <-> real twin as a
// fresh engine does.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/schema_text.h"
#include "bitcoin/to_relational.h"
#include "core/dcsat.h"
#include "core/monitor.h"
#include "query/compiled_query.h"
#include "query/parser.h"
#include "query/template.h"
#include "running_example.h"
#include "util/rng.h"

namespace bcdb {
namespace {

constexpr std::uint64_t kSeed = 20201;
constexpr int kMutants = 12000;

std::string ReadSourceFile(const std::string& relative) {
  std::ifstream in(std::string(BCDB_SOURCE_DIR) + "/" + relative,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << relative;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A schema with its integrity constraints and an empty database over it.
struct Environment {
  Environment(Catalog catalog, ConstraintSet constraints_in)
      : db(std::move(catalog)), constraints(std::move(constraints_in)) {}
  Database db;
  ConstraintSet constraints;
};

/// The parseable lines of one .dc file (comments and blanks dropped).
std::vector<DenialConstraint> ParseCorpusFile(const std::string& path) {
  std::vector<DenialConstraint> corpus;
  std::istringstream lines(ReadSourceFile(path));
  std::string line;
  while (std::getline(lines, line)) {
    line = line.substr(0, line.find('#'));
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    StatusOr<DenialConstraint> q = ParseDenialConstraint(line);
    if (q.ok()) corpus.push_back(*std::move(q));
  }
  return corpus;
}

bool HasParam(const DenialConstraint& q) {
  auto any = [](const std::vector<Term>& terms) {
    for (const Term& term : terms) {
      if (term.is_param()) return true;
    }
    return false;
  };
  for (const std::vector<Atom>* atoms :
       {&q.positive_atoms, &q.negated_atoms}) {
    for (const Atom& atom : *atoms) {
      if (any(atom.args)) return true;
    }
  }
  for (const Comparison& cmp : q.comparisons) {
    if (cmp.lhs.is_param() || cmp.rhs.is_param()) return true;
  }
  if (any(q.head_vars)) return true;
  return q.aggregate.has_value() &&
         (any(q.aggregate->args) || q.aggregate->threshold.is_param());
}

bool HasNonVariableHead(const DenialConstraint& q) {
  for (const Term& term : q.head_vars) {
    if (!term.is_variable()) return true;
  }
  return false;
}

/// Replaces each numeric constant `v` of q (atom and comparison terms, a
/// constant aggregate threshold), in order, with `fn(v)`.
template <typename Fn>
void RewriteNumericConstants(DenialConstraint& q, Fn&& fn) {
  auto rewrite = [&](Term& term) {
    if (term.is_constant() && term.value().IsNumeric()) {
      term = Term::Const(fn(term.value()));
    }
  };
  for (std::vector<Atom>* atoms : {&q.positive_atoms, &q.negated_atoms}) {
    for (Atom& atom : *atoms) {
      for (Term& term : atom.args) rewrite(term);
    }
  }
  for (Comparison& cmp : q.comparisons) {
    rewrite(cmp.lhs);
    rewrite(cmp.rhs);
  }
  if (q.aggregate.has_value()) rewrite(q.aggregate->threshold);
}

/// The equal value of the other numeric type, if there is one (4 <-> 4.0);
/// otherwise `v` itself.
Value OtherNumericType(const Value& v) {
  if (v.type() == ValueType::kInt) {
    return Value::Real(static_cast<double>(v.AsInt()));
  }
  const double d = v.AsReal();
  return std::trunc(d) == d && std::abs(d) < 1e18
             ? Value::Int(static_cast<std::int64_t>(d))
             : v;
}

class Mutator {
 public:
  Mutator(std::uint64_t seed, const Catalog& catalog)
      : rng_(seed), catalog_(catalog) {}

  DenialConstraint Mutate(DenialConstraint q) {
    const int rounds = 1 + static_cast<int>(rng_.NextBelow(3));
    for (int r = 0; r < rounds; ++r) MutateOnce(q);
    return q;
  }

 private:
  std::size_t Pick(std::size_t n) { return rng_.NextBelow(n); }
  bool Coin() { return rng_.NextBelow(2) == 0; }

  Term RandomConstant() {
    switch (Pick(3)) {
      case 0:
        return Term::Const(Value::Int(static_cast<std::int64_t>(Pick(5))));
      case 1:
        return Term::Const(Value::Real(1.5));
      default:
        return Term::Const(Value::Str(Coin() ? "x" : "U8Pk"));
    }
  }

  std::string FreshVar() { return "m" + std::to_string(fresh_++); }

  /// Some variable of q, or a fresh one when q has none.
  std::string SomeVariable(const DenialConstraint& q) {
    std::vector<std::string> names;
    for (const std::vector<Atom>* atoms :
         {&q.positive_atoms, &q.negated_atoms}) {
      for (const Atom& atom : *atoms) {
        for (const Term& term : atom.args) {
          if (term.is_variable()) names.push_back(term.name());
        }
      }
    }
    return names.empty() ? FreshVar() : names[Pick(names.size())];
  }

  /// A uniformly chosen atom (positive or negated), or null when none.
  Atom* SomeAtom(DenialConstraint& q) {
    const std::size_t n = q.positive_atoms.size() + q.negated_atoms.size();
    if (n == 0) return nullptr;
    const std::size_t i = Pick(n);
    return i < q.positive_atoms.size()
               ? &q.positive_atoms[i]
               : &q.negated_atoms[i - q.positive_atoms.size()];
  }

  void MutateOnce(DenialConstraint& q) {
    switch (Pick(13)) {
      case 0: {  // Drop an atom.
        std::vector<Atom>& atoms =
            Coin() || q.negated_atoms.empty() ? q.positive_atoms
                                              : q.negated_atoms;
        if (!atoms.empty()) atoms.erase(atoms.begin() + Pick(atoms.size()));
        break;
      }
      case 1: {  // Duplicate an atom, possibly as a negated one.
        if (Atom* atom = SomeAtom(q)) {
          Atom copy = *atom;
          copy.negated = Coin();
          (copy.negated ? q.negated_atoms : q.positive_atoms)
              .push_back(std::move(copy));
        }
        break;
      }
      case 2: {  // Change an arity.
        if (Atom* atom = SomeAtom(q)) {
          if (Coin() && !atom->args.empty()) {
            atom->args.erase(atom->args.begin() + Pick(atom->args.size()));
          } else {
            atom->args.push_back(Term::Var(FreshVar()));
          }
        }
        break;
      }
      case 3: {  // Rename a relation: to an unknown name or another one.
        if (Atom* atom = SomeAtom(q)) {
          atom->relation =
              Coin() ? atom->relation + "s"
                     : catalog_.schema(Pick(catalog_.num_relations())).name();
        }
        break;
      }
      case 4: {  // A constant, likely of the wrong type, in an atom.
        if (Atom* atom = SomeAtom(q)) {
          if (!atom->args.empty()) {
            atom->args[Pick(atom->args.size())] = RandomConstant();
          }
        }
        break;
      }
      case 5: {  // Move a variable out of the positive atoms...
        const std::string name = SomeVariable(q);
        for (Atom& atom : q.positive_atoms) {
          for (Term& term : atom.args) {
            if (term.is_variable() && term.name() == name) {
              term = Term::Var(FreshVar());
            }
          }
        }
        // ... so it occurs only in a comparison or a negated atom.
        if (Coin() || catalog_.num_relations() == 0) {
          q.comparisons.push_back(Comparison{
              Term::Var(name), ComparisonOp::kGt, Term::Const(Value::Int(0))});
        } else {
          const RelationSchema& schema =
              catalog_.schema(Pick(catalog_.num_relations()));
          Atom negated{schema.name(), {}, true};
          for (std::size_t i = 0; i < schema.arity(); ++i) {
            negated.args.push_back(Term::Var(i == 0 ? name : FreshVar()));
          }
          q.negated_atoms.push_back(std::move(negated));
        }
        break;
      }
      case 6: {  // A comparison over a variable (often unbound).
        const Term lhs = Coin() ? Term::Var(SomeVariable(q))
                                : Term::Var(FreshVar());
        q.comparisons.push_back(Comparison{
            lhs, static_cast<ComparisonOp>(Pick(6)),
            Coin() ? RandomConstant() : Term::Var(SomeVariable(q))});
        break;
      }
      case 7: {  // Head terms and an aggregate together.
        if (q.aggregate.has_value()) {
          q.head_vars.push_back(Term::Var(SomeVariable(q)));
        } else {
          AggregateSpec spec;
          spec.fn = AggregateFunction::kCount;
          spec.threshold = Term::Const(Value::Int(1));
          q.aggregate = spec;
          if (q.head_vars.empty() || Coin()) {
            q.head_vars.push_back(Term::Var(SomeVariable(q)));
          }
        }
        break;
      }
      case 8: {  // A non-variable aggregate or head argument.
        if (q.aggregate.has_value() && Coin()) {
          q.aggregate->args.push_back(RandomConstant());
        } else {
          q.head_vars.push_back(RandomConstant());
        }
        break;
      }
      case 9: {  // A value aggregate with too few or too many arguments.
        AggregateSpec spec =
            q.aggregate.has_value() ? *q.aggregate : AggregateSpec{};
        spec.fn = static_cast<AggregateFunction>(Pick(5));
        spec.args.clear();
        const std::size_t n = Pick(3);
        for (std::size_t i = 0; i < n; ++i) {
          spec.args.push_back(Term::Var(SomeVariable(q)));
        }
        // A parameterized threshold stays a parameter.
        if (!spec.threshold.is_param()) {
          spec.threshold = Term::Const(Value::Int(2));
        }
        q.aggregate = spec;
        break;
      }
      case 10: {  // Answer-producing head over (mostly) bound variables.
        q.aggregate.reset();
        q.head_vars = {Term::Var(SomeVariable(q))};
        break;
      }
      case 11: {  // A numeric constant as the other numeric type (4 <-> 4.0).
        std::size_t n = 0;
        RewriteNumericConstants(q, [&](const Value& v) {
          ++n;
          return v;
        });
        if (n == 0) break;
        const std::size_t pick = Pick(n);
        std::size_t seen = 0;
        RewriteNumericConstants(q, [&](const Value& v) {
          return seen++ == pick ? OtherNumericType(v) : v;
        });
        break;
      }
      default: {  // Swap an atom term for a variable of the query.
        if (Atom* atom = SomeAtom(q)) {
          if (!atom->args.empty()) {
            atom->args[Pick(atom->args.size())] = Term::Var(SomeVariable(q));
          }
        }
        break;
      }
    }
  }

  Xoshiro256 rng_;
  const Catalog& catalog_;
  std::size_t fresh_ = 0;
};

struct Tally {
  int parsed = 0;
  int accepted = 0;
  int rejected = 0;
};

/// The analyzer (no base-state probe) and the compiler agree on `q`, and a
/// compile failure carries the validator's status codes.
void ExpectAgreement(const DenialConstraint& q, const Environment& env,
                     const std::string& label, Tally& tally) {
  AnalyzerOptions options;
  options.check_base_state = false;
  const AnalysisReport report =
      AnalyzeConstraint(q, env.db, env.constraints, options);
  const StatusOr<CompiledQuery> compiled = CompiledQuery::Compile(q, &env.db);
  EXPECT_EQ(report.ok(), compiled.ok())
      << label << "\n  report: " << report.ErrorSummary()
      << "\n  compile: " << compiled.status();
  if (!compiled.ok()) {
    EXPECT_TRUE(compiled.status().code() == StatusCode::kInvalidArgument ||
                compiled.status().code() == StatusCode::kNotFound)
        << label << ": " << compiled.status();
  }
  (report.ok() ? tally.accepted : tally.rejected) += 1;
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.code == AnalysisCode::kBadHead) {
      EXPECT_TRUE(HasNonVariableHead(q)) << label;
    }
  }
}

/// A monitor registers `q` exactly when the analyzer (no base-state probe)
/// accepts it, and the accepted member's class report has no error.
void ExpectAddAgreement(const DenialConstraint& q, const Environment& env,
                        ConstraintMonitor& monitor, const std::string& label) {
  AnalyzerOptions options;
  options.check_base_state = false;
  const AnalysisReport report =
      AnalyzeConstraint(q, env.db, env.constraints, options);
  const StatusOr<MonitorHandle> added = monitor.Add(label, q);
  EXPECT_EQ(added.ok(), report.ok())
      << label << "\n  report: " << report.ErrorSummary()
      << "\n  add: " << added.status();
  if (added.ok()) {
    const AnalysisReport* member = monitor.analysis(*added);
    ASSERT_NE(member, nullptr) << label;
    EXPECT_TRUE(member->ok()) << label << ": " << member->ErrorSummary();
  }
}

TEST(ValidatorMutationTest, AnalyzerAcceptsExactlyWhatCompiles) {
  StatusOr<ParsedSchema> marketplace =
      ParseSchemaText(ReadSourceFile("examples/constraints/marketplace.schema"));
  ASSERT_TRUE(marketplace.ok()) << marketplace.status();
  Catalog bitcoin_catalog = bitcoin::MakeBitcoinCatalog();
  StatusOr<ConstraintSet> bitcoin_constraints =
      bitcoin::MakeBitcoinConstraints(bitcoin_catalog);
  ASSERT_TRUE(bitcoin_constraints.ok()) << bitcoin_constraints.status();
  const Environment envs[] = {
      Environment(marketplace->catalog, marketplace->constraints),
      Environment(bitcoin_catalog, *bitcoin_constraints)};

  struct Seed {
    DenialConstraint q;
    const Environment* env;
  };
  std::vector<Seed> seeds;
  for (const char* name : {"bad", "marketplace", "templates"}) {
    for (DenialConstraint& q : ParseCorpusFile(
             std::string("examples/constraints/") + name + ".dc")) {
      seeds.push_back(Seed{std::move(q), &envs[0]});
    }
  }
  for (DenialConstraint& q :
       ParseCorpusFile("examples/constraints/bitcoin.dc")) {
    seeds.push_back(Seed{std::move(q), &envs[1]});
  }
  ASSERT_GE(seeds.size(), 15u);

  // One monitor per schema takes every parameter-free mutant.
  StatusOr<BlockchainDatabase> marketplace_chain = BlockchainDatabase::Create(
      marketplace->catalog, marketplace->constraints);
  StatusOr<BlockchainDatabase> bitcoin_chain =
      BlockchainDatabase::Create(bitcoin_catalog, *bitcoin_constraints);
  ASSERT_TRUE(marketplace_chain.ok()) << marketplace_chain.status();
  ASSERT_TRUE(bitcoin_chain.ok()) << bitcoin_chain.status();
  ConstraintMonitor marketplace_monitor(&*marketplace_chain);
  ConstraintMonitor bitcoin_monitor(&*bitcoin_chain);

  Mutator marketplace_mutator(kSeed, envs[0].db.catalog());
  Mutator bitcoin_mutator(kSeed + 1, envs[1].db.catalog());
  Tally tally;
  for (int i = 0; i < kMutants; ++i) {
    const Seed& seed = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const Environment& env = *seed.env;
    Mutator& mutator =
        seed.env == &envs[0] ? marketplace_mutator : bitcoin_mutator;
    ConstraintMonitor& monitor =
        seed.env == &envs[0] ? marketplace_monitor : bitcoin_monitor;
    const DenialConstraint mutant = mutator.Mutate(seed.q);
    const std::string text = mutant.ToString();
    const std::string label = "mutant " + std::to_string(i) + ": " + text;

    // The AST itself, which may hold shapes the parser never produces
    // (non-variable head terms).
    if (HasParam(mutant)) {
      StatusOr<ConstraintTemplate> tmpl = ConstraintTemplate::Create(mutant);
      if (tmpl.ok()) {
        const TemplateAnalysis analysis =
            AnalyzeTemplate(*tmpl, env.db, env.constraints);
        const StatusOr<CompiledQuery> plan =
            CompiledQuery::Compile(tmpl->constraint(), &env.db);
        EXPECT_EQ(analysis.report.ok(), plan.ok())
            << label << "\n  report: " << analysis.report.ErrorSummary()
            << "\n  compile: " << plan.status();
      }
      (void)CompiledQuery::Compile(mutant, &env.db);
    } else {
      ExpectAgreement(mutant, env, label, tally);
      ExpectAddAgreement(mutant, env, monitor, label);
    }

    // Its rendering, through the parser and the text analyzer. Display
    // text that parses reads back to the mutant itself.
    const AnalysisReport text_report =
        AnalyzeConstraintText(text, env.db, env.constraints);
    for (const Diagnostic& diag : text_report.diagnostics) {
      if (diag.severity == Severity::kError) {
        EXPECT_TRUE(diag.span.valid())
            << label << ": " << AnalysisCodeToString(diag.code);
        EXPECT_LE(diag.span.offset, text.size()) << label;
      }
    }
    StatusOr<DenialConstraint> parsed = ParseDenialConstraint(text);
    if (parsed.ok()) {
      ++tally.parsed;
      EXPECT_TRUE(*parsed == mutant) << label;
      if (!HasParam(*parsed)) ExpectAgreement(*parsed, env, label, tally);
    }
  }
  // The generator reaches both sides of the verdict, through the parser too.
  EXPECT_GT(tally.parsed, kMutants / 4);
  EXPECT_GT(tally.accepted, kMutants / 20);
  EXPECT_GT(tally.rejected, kMutants / 4);
}

/// `q` with its query name and every variable, head included, renamed.
DenialConstraint RenamedTwin(DenialConstraint q) {
  auto rename = [](Term& term) {
    if (term.is_variable()) term = Term::Var("twin_" + term.name());
  };
  ForEachTerm(q, rename);
  for (Term& term : q.head_vars) rename(term);
  q.name = "twin";
  return q;
}

/// `q` with the coupling of its first two constants flipped: equal ones
/// are pulled apart (the second gets a value no other constant has), unequal
/// ones are made equal. nullopt when `q` has fewer than two constants.
std::optional<DenialConstraint> RecoupledTwin(DenialConstraint q) {
  std::vector<Term*> constants;
  ForEachTerm(q, [&](Term& term) {
    if (term.is_constant()) constants.push_back(&term);
  });
  if (constants.size() < 2) return std::nullopt;
  const Value& first = constants[0]->value();
  const Value& second = constants[1]->value();
  if (!(first == second)) {
    *constants[1] = Term::Const(first);
  } else if (second.type() == ValueType::kString) {
    *constants[1] = Term::Const(Value::Str(second.AsString() + "'"));
  } else {
    *constants[1] = Term::Const(Value::Real(1e300));
  }
  return q;
}

// Canonicalize is exact up to naming: a ground mutant and its renamed twin
// canonicalize to equal templates and Add puts them in one class, while a
// twin whose constants couple differently gets a different template and,
// when both are admitted, a different class.
TEST(ValidatorMutationTest, RenamedTwinsShareAClass) {
  StatusOr<ParsedSchema> marketplace =
      ParseSchemaText(ReadSourceFile("examples/constraints/marketplace.schema"));
  ASSERT_TRUE(marketplace.ok()) << marketplace.status();
  StatusOr<BlockchainDatabase> chain = BlockchainDatabase::Create(
      marketplace->catalog, marketplace->constraints);
  ASSERT_TRUE(chain.ok()) << chain.status();
  BlockchainDatabase bitcoin_chain = testing_fixtures::MakeRunningExample();
  struct Corpus {
    BlockchainDatabase* db;
    std::vector<DenialConstraint> seeds;
  };
  Corpus corpora[] = {{&*chain, {}}, {&bitcoin_chain, {}}};
  for (const char* name : {"bad", "marketplace", "templates"}) {
    for (DenialConstraint& q : ParseCorpusFile(
             std::string("examples/constraints/") + name + ".dc")) {
      corpora[0].seeds.push_back(std::move(q));
    }
  }
  corpora[1].seeds = ParseCorpusFile("examples/constraints/bitcoin.dc");

  constexpr int kTwins = 3000;
  int shared = 0;
  int split = 0;
  for (std::size_t c = 0; c < std::size(corpora); ++c) {
    const Corpus& corpus = corpora[c];
    ConstraintMonitor monitor(corpus.db);
    Mutator mutator(kSeed + 3 + c, corpus.db->database().catalog());
    for (int i = 0; i < kTwins; ++i) {
      const DenialConstraint mutant = mutator.Mutate(
          corpus.seeds[static_cast<std::size_t>(i) % corpus.seeds.size()]);
      if (HasParam(mutant)) continue;
      const std::string label = "mutant " + std::to_string(i) + ": " +
                                mutant.ToString();
      const DenialConstraint twin = RenamedTwin(mutant);
      const StatusOr<CanonicalizedConstraint> canon =
          ConstraintTemplate::Canonicalize(mutant);
      const StatusOr<CanonicalizedConstraint> twin_canon =
          ConstraintTemplate::Canonicalize(twin);
      ASSERT_EQ(canon.ok(), twin_canon.ok()) << label;
      if (!canon.ok()) continue;
      EXPECT_TRUE(canon->tmpl.constraint() == twin_canon->tmpl.constraint())
          << label;
      EXPECT_TRUE(canon->binding == twin_canon->binding) << label;

      const StatusOr<MonitorHandle> added = monitor.Add("m", mutant);
      const std::size_t classes = monitor.num_classes();
      const StatusOr<MonitorHandle> twin_added = monitor.Add("t", twin);
      ASSERT_EQ(added.ok(), twin_added.ok()) << label;
      EXPECT_EQ(monitor.num_classes(), classes) << label;
      if (added.ok()) {
        EXPECT_EQ(monitor.analysis(*added), monitor.analysis(*twin_added))
            << label;
        ++shared;
      }

      const std::optional<DenialConstraint> recoupled = RecoupledTwin(twin);
      if (!recoupled.has_value()) continue;
      const StatusOr<CanonicalizedConstraint> recoupled_canon =
          ConstraintTemplate::Canonicalize(*recoupled);
      ASSERT_TRUE(recoupled_canon.ok()) << label;
      EXPECT_FALSE(canon->tmpl.constraint() ==
                   recoupled_canon->tmpl.constraint())
          << label;
      const StatusOr<MonitorHandle> recoupled_added =
          monitor.Add("r", *recoupled);
      if (added.ok() && recoupled_added.ok()) {
        EXPECT_NE(monitor.analysis(*added), monitor.analysis(*recoupled_added))
            << label << "\n  recoupled: " << recoupled->ToString();
        ++split;
      }
    }
  }
  // Both sides of the property are reached.
  EXPECT_GT(shared, kTwins / 20);
  EXPECT_GT(split, kTwins / 100);
}

/// One engine check's observable outcome.
struct CheckOutcome {
  StatusCode code;
  bool decided = false;
  bool satisfied = false;
  std::optional<std::vector<PendingId>> witness;

  bool operator==(const CheckOutcome&) const = default;
};

CheckOutcome RunCheck(DcSatEngine& engine, const DenialConstraint& q) {
  StatusOr<DcSatResult> result = engine.Check(q);
  if (!result.ok()) {
    return CheckOutcome{result.status().code(), false, false, std::nullopt};
  }
  return CheckOutcome{StatusCode::kOk, result->decided, result->satisfied,
                      result->witness};
}

// The compiled-query cache hands a query the plan of an equal query only:
// through one warm engine, cycled well past its capacity, every mutant and
// its int <-> real twin (an equal query, so it shares the mutant's plan)
// gets the answer a fresh engine gives.
TEST(ValidatorMutationTest, WarmEngineAnswersAsAFreshOne) {
  BlockchainDatabase db = testing_fixtures::MakeRunningExample();
  std::vector<DenialConstraint> seeds =
      ParseCorpusFile("examples/constraints/bitcoin.dc");
  for (const char* text : {
           "[q(sum(a)) :- TxOut(t, s, 'U7Pk', a)] >= 4",
           "[q(sum(a)) :- TxOut(t, s, 'U7Pk', a)] >= 4.0000001",
           "[q(count()) :- TxOut(t, s, 'U4Pk', a)] >= 2",
           "q() :- TxIn(pt, ps, pk, a, ntx, sig), TxOut(ntx, s, 'U4Pk', 3)",
           "q() :- TxOut(t, s, 'U7Pk', a), a > 2.5",
       }) {
    StatusOr<DenialConstraint> q = ParseDenialConstraint(text);
    ASSERT_TRUE(q.ok()) << text;
    seeds.push_back(*std::move(q));
  }

  constexpr int kChecks = 2400;
  static_assert(kChecks > 30 * static_cast<int>(
                              DcSatEngine::kCompiledCacheCapacity));
  Mutator mutator(kSeed + 2, db.database().catalog());
  DcSatEngine warm(&db);
  int decided = 0;
  for (int i = 0; i < kChecks; ++i) {
    const DenialConstraint mutant =
        mutator.Mutate(seeds[static_cast<std::size_t>(i) % seeds.size()]);
    DenialConstraint twin = mutant;
    RewriteNumericConstants(twin, OtherNumericType);
    ASSERT_TRUE(twin == mutant) << mutant.ToString();
    for (const DenialConstraint& q : {mutant, twin}) {
      DcSatEngine fresh(&db);
      const CheckOutcome want = RunCheck(fresh, q);
      EXPECT_TRUE(RunCheck(warm, q) == want)
          << "mutant " << i << ": " << q.ToString();
      if (want.code == StatusCode::kOk) ++decided;
    }
  }
  EXPECT_GT(decided, kChecks / 10);
}

}  // namespace
}  // namespace bcdb
