// Seeded, structure-aware mutation test of the parser, the analyzer, the
// compiler and the engine's compiled-query cache. Mutants of the
// examples/constraints corpus drop, duplicate and resize atoms, rename
// relations, plant wrong-typed constants, swap a constant between int and
// real, strand variables in negated atoms and comparisons, and malform
// aggregate and answer heads. Every mutant must come back as a Status or a
// report (never an abort), and a parameter-free mutant must pass the
// analyzer exactly when it compiles: both read one validator
// (ValidateQuery). A mutant's display text parses back to an equal query,
// every error diagnostic carries a span, and a warm engine answers every mutant
// and its int <-> real twin as a fresh engine does.

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

  Mutator marketplace_mutator(kSeed, envs[0].db.catalog());
  Mutator bitcoin_mutator(kSeed + 1, envs[1].db.catalog());
  Tally tally;
  for (int i = 0; i < kMutants; ++i) {
    const Seed& seed = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const Environment& env = *seed.env;
    Mutator& mutator =
        seed.env == &envs[0] ? marketplace_mutator : bitcoin_mutator;
    const DenialConstraint mutant = mutator.Mutate(seed.q);
    const std::string text = mutant.ToString();
    const std::string label = "mutant " + std::to_string(i) + ": " + text;

    // The AST itself, which may hold shapes the parser never produces
    // (non-variable head terms).
    if (HasParam(mutant)) {
      StatusOr<ConstraintTemplate> tmpl = ConstraintTemplate::Create(mutant);
      if (tmpl.ok()) {
        (void)AnalyzeTemplate(*tmpl, env.db, env.constraints);
      }
      (void)CompiledQuery::Compile(mutant, &env.db);
    } else {
      ExpectAgreement(mutant, env, label, tally);
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
