#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/analyzer.h"
#include "analysis/lint_format.h"
#include "analysis/schema_text.h"
#include "bitcoin/to_relational.h"
#include "core/dcsat.h"
#include "core/monitor.h"
#include "query/compiled_query.h"
#include "query/parser.h"
#include "query/template.h"

namespace bcdb {
namespace {

// R(a int, b int), S(x int, y int nonneg), Str(s string, n int).
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
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "Str", {Attribute{"s", ValueType::kString, false},
                              Attribute{"n", ValueType::kInt, false}}))
                  .ok());
  return catalog;
}

enum class Sets { kNone, kFdOnly, kIndOnly, kMixed };

ConstraintSet MakeConstraints(const Catalog& catalog, Sets which) {
  ConstraintSet constraints;
  if (which == Sets::kFdOnly || which == Sets::kMixed) {
    constraints.AddFd(*FunctionalDependency::Key(catalog, "R", {"a"}));
  }
  if (which == Sets::kIndOnly || which == Sets::kMixed) {
    constraints.AddInd(
        *InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"}));
  }
  return constraints;
}

bool HasDiagnostic(const AnalysisReport& report, AnalysisCode code) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic* FindDiagnostic(const AnalysisReport& report,
                                 AnalysisCode code) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

class AnalyzerTest : public ::testing::Test {
 protected:
  AnalyzerTest() : db_(MakeCatalog()) {}

  AnalysisReport Analyze(const char* text, Sets which = Sets::kMixed) {
    return AnalyzeConstraintText(
        text, db_, MakeConstraints(db_.catalog(), which));
  }

  AnalysisReport Analyze(const DenialConstraint& q, Sets which = Sets::kMixed) {
    return AnalyzeConstraint(q, db_, MakeConstraints(db_.catalog(), which));
  }

  Database db_;
};

// --- One test per diagnostic kind. ---

TEST_F(AnalyzerTest, ParseError) {
  AnalysisReport report = Analyze("q() :- R(x,");
  EXPECT_FALSE(report.ok());
  const Diagnostic* diag = FindDiagnostic(report, AnalysisCode::kParseError);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->severity, Severity::kError);
}

TEST_F(AnalyzerTest, NoPositiveAtoms) {
  DenialConstraint q;  // Empty body.
  AnalysisReport report = Analyze(q);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, AnalysisCode::kNoPositiveAtoms));
}

TEST_F(AnalyzerTest, UnknownRelation) {
  AnalysisReport report = Analyze("q() :- Nope(x, y)");
  EXPECT_FALSE(report.ok());
  const Diagnostic* diag =
      FindDiagnostic(report, AnalysisCode::kUnknownRelation);
  ASSERT_NE(diag, nullptr);
  EXPECT_NE(diag->message.find("Nope"), std::string::npos);
}

TEST_F(AnalyzerTest, ArityMismatch) {
  AnalysisReport report = Analyze("q() :- R(x, y, z)");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, AnalysisCode::kArityMismatch));
}

TEST_F(AnalyzerTest, ConstantTypeMismatch) {
  AnalysisReport report = Analyze("q() :- R('oops', y)");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, AnalysisCode::kConstantTypeMismatch));
}

TEST_F(AnalyzerTest, UnsafeVariable) {
  AnalysisReport report = Analyze("q() :- R(x, y), not S(x, w)");
  EXPECT_FALSE(report.ok());
  const Diagnostic* diag = FindDiagnostic(report, AnalysisCode::kUnsafeVariable);
  ASSERT_NE(diag, nullptr);
  EXPECT_NE(diag->message.find("'w'"), std::string::npos);

  AnalysisReport cmp = Analyze("q() :- R(x, y), z > 3");
  EXPECT_TRUE(HasDiagnostic(cmp, AnalysisCode::kUnsafeVariable));
}

TEST_F(AnalyzerTest, BadAggregate) {
  DenialConstraint q;
  q.positive_atoms.push_back(
      Atom{"R", {Term::Var("x"), Term::Var("y")}, false});
  AggregateSpec spec;
  spec.fn = AggregateFunction::kSum;
  spec.args = {Term::Var("x"), Term::Var("y")};  // sum takes one variable.
  spec.op = ComparisonOp::kGt;
  spec.threshold = Term::Const(Value::Int(3));
  q.aggregate = spec;
  AnalysisReport report = Analyze(q);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, AnalysisCode::kBadAggregate));
}

TEST_F(AnalyzerTest, CompileRejectedSafetyNet) {
  // Non-variable head terms: the parser never produces them, so only the
  // shared validator's head check can fail the report.
  DenialConstraint q;
  q.head_vars = {Term::Const(std::int64_t{7})};
  q.positive_atoms.push_back(
      Atom{"R", {Term::Var("x"), Term::Var("y")}, false});
  AnalysisReport report = Analyze(q);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, AnalysisCode::kBadHead));
}

TEST_F(AnalyzerTest, AlwaysFalseComparison) {
  AnalysisReport report = Analyze("q() :- R(x, y), x < x");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, AnalysisCode::kAlwaysFalseComparison));
  EXPECT_TRUE(report.proved_unsat);
  EXPECT_EQ(report.tractability, TractabilityClass::kTriviallyUnsat);

  // Constant fold: 1 = 2 never holds.
  AnalysisReport folded = Analyze("q() :- R(x, y), 1 = 2");
  EXPECT_TRUE(folded.proved_unsat);
  // Conflicting constants through an equality chain: x = 1, x = y, y = 2.
  AnalysisReport chained = Analyze("q() :- R(x, y), x = 1, x = y, y = 2");
  EXPECT_TRUE(chained.proved_unsat);
}

TEST_F(AnalyzerTest, JoinTypeConflict) {
  // `v` joins R.a (int) and Str.s (string): no tuple pair can match.
  AnalysisReport report = Analyze("q() :- R(v, b), Str(v, n)");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, AnalysisCode::kJoinTypeConflict));
  EXPECT_TRUE(report.proved_unsat);
  EXPECT_EQ(report.tractability, TractabilityClass::kTriviallyUnsat);
}

TEST_F(AnalyzerTest, ComparisonTypeMismatch) {
  // Numeric sorts before string in the total value order: a < s is always
  // true (redundant, a warning but not unsat)...
  AnalysisReport redundant = Analyze("q() :- R(a, b), Str(s, n), a < s");
  EXPECT_TRUE(redundant.ok());
  EXPECT_TRUE(
      HasDiagnostic(redundant, AnalysisCode::kComparisonTypeMismatch));
  EXPECT_FALSE(redundant.proved_unsat);
  // ... while a > s can never hold.
  AnalysisReport unsat = Analyze("q() :- R(a, b), Str(s, n), a > s");
  EXPECT_TRUE(HasDiagnostic(unsat, AnalysisCode::kComparisonTypeMismatch));
  EXPECT_TRUE(unsat.proved_unsat);
}

TEST_F(AnalyzerTest, AlreadyViolated) {
  Database db(MakeCatalog());
  ASSERT_TRUE(db.Insert("R", Tuple({Value::Int(1), Value::Int(2)})).ok());
  auto q = ParseDenialConstraint("q() :- R(x, y)");
  ASSERT_TRUE(q.ok());
  AnalysisReport report =
      AnalyzeConstraint(*q, db, MakeConstraints(db.catalog(), Sets::kMixed));
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, AnalysisCode::kAlreadyViolated));
  EXPECT_EQ(report.tractability, TractabilityClass::kTriviallyViolated);

  // With the base-state probe off the class stays data-independent.
  AnalyzerOptions options;
  options.check_base_state = false;
  AnalysisReport unprobed = AnalyzeConstraint(
      *q, db, MakeConstraints(db.catalog(), Sets::kMixed), options);
  EXPECT_FALSE(HasDiagnostic(unprobed, AnalysisCode::kAlreadyViolated));
  EXPECT_EQ(unprobed.tractability, TractabilityClass::kCoNpMixed);
}

TEST_F(AnalyzerTest, NonMonotone) {
  AnalysisReport report = Analyze("q() :- R(x, y), not S(x, y)");
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.analysis.monotone);
  const Diagnostic* diag = FindDiagnostic(report, AnalysisCode::kNonMonotone);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->severity, Severity::kNote);
  EXPECT_FALSE(report.analysis.monotone_reason.empty());
}

TEST_F(AnalyzerTest, Disconnected) {
  AnalysisReport report = Analyze("q() :- R(x, y), S(u, v)");
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.analysis.connected);
  EXPECT_TRUE(HasDiagnostic(report, AnalysisCode::kDisconnected));
  // A shared variable connects the Gaifman graph: no note.
  AnalysisReport joined = Analyze("q() :- R(x, y), S(x, v)");
  EXPECT_TRUE(joined.analysis.connected);
  EXPECT_FALSE(HasDiagnostic(joined, AnalysisCode::kDisconnected));
}

TEST_F(AnalyzerTest, MixedConstraintClass) {
  AnalysisReport report = Analyze("q() :- S(x, y)", Sets::kMixed);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.tractability, TractabilityClass::kCoNpMixed);
  EXPECT_TRUE(HasDiagnostic(report, AnalysisCode::kMixedConstraintClass));
}

TEST_F(AnalyzerTest, GeneralQueryShape) {
  // FD-only constraints but an aggregate query: outside the proven-PTIME
  // FD fragment, though the constraint set alone is one-sided.
  AnalysisReport report =
      Analyze("[q(count()) :- R(x, y)] > 2", Sets::kFdOnly);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.tractability, TractabilityClass::kCoNpMixed);
  EXPECT_TRUE(HasDiagnostic(report, AnalysisCode::kGeneralQueryShape));
  // IND-only constraints with a non-monotone query: same note.
  AnalysisReport ind = Analyze("q() :- R(x, y), not S(x, y)", Sets::kIndOnly);
  EXPECT_EQ(ind.tractability, TractabilityClass::kCoNpMixed);
  EXPECT_TRUE(HasDiagnostic(ind, AnalysisCode::kGeneralQueryShape));
}

// --- One test per tractability class (the unsat / violated corners are
// covered above). ---

TEST_F(AnalyzerTest, ClassPtimeFdOnly) {
  AnalysisReport report = Analyze("q() :- R(x, y), S(x, z)", Sets::kFdOnly);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.tractability, TractabilityClass::kPtimeFdOnly);
  EXPECT_TRUE(report.analysis.monotone);
}

TEST_F(AnalyzerTest, ClassPtimeIndOnly) {
  AnalysisReport report = Analyze("q() :- S(x, y)", Sets::kIndOnly);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.tractability, TractabilityClass::kPtimeIndOnly);
  // Monotone aggregates stay in the IND fragment (Theorem 2).
  AnalysisReport agg = Analyze("[q(sum(y)) :- S(x, y)] > 5", Sets::kIndOnly);
  EXPECT_EQ(agg.tractability, TractabilityClass::kPtimeIndOnly);
  // An empty constraint set behaves like IND-only (unique maximal world).
  AnalysisReport none = Analyze("q() :- S(x, y)", Sets::kNone);
  EXPECT_EQ(none.tractability, TractabilityClass::kPtimeIndOnly);
}

TEST_F(AnalyzerTest, ClassCoNpMixed) {
  AnalysisReport report = Analyze("q() :- S(x, y), R(x, b)", Sets::kMixed);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.tractability, TractabilityClass::kCoNpMixed);
}

// --- Derived facts. ---

TEST_F(AnalyzerTest, FootprintClosesUnderIndCoupling) {
  auto q = ParseDenialConstraint("q() :- S(x, y)");
  ASSERT_TRUE(q.ok());
  const Catalog& catalog = db_.catalog();
  // With the IND S[x] ⊆ R[a], watching S requires watching R too.
  std::vector<std::size_t> coupled = IndClosedFootprint(
      *q, catalog, MakeConstraints(catalog, Sets::kMixed));
  EXPECT_EQ(coupled, (std::vector<std::size_t>{
                         catalog.RelationId("R").value(),
                         catalog.RelationId("S").value()}));
  // Without INDs the footprint is just the referenced relation.
  std::vector<std::size_t> bare = IndClosedFootprint(
      *q, catalog, MakeConstraints(catalog, Sets::kFdOnly));
  EXPECT_EQ(bare,
            (std::vector<std::size_t>{catalog.RelationId("S").value()}));
}

TEST_F(AnalyzerTest, SpansPointIntoSourceText) {
  const char* text = "q() :- Nope(x, y)";
  AnalysisReport report = Analyze(text);
  const Diagnostic* diag =
      FindDiagnostic(report, AnalysisCode::kUnknownRelation);
  ASSERT_NE(diag, nullptr);
  ASSERT_TRUE(diag->span.valid());
  EXPECT_EQ(std::string_view(text).substr(diag->span.offset,
                                          diag->span.length),
            "Nope");
}

// --- A template's class holds for every binding: no fact of it comes from
// the dummy instance admission runs on. ---

TEST(TemplateClassTest, NoFactComesFromTheDummyBinding) {
  Catalog catalog = bitcoin::MakeBitcoinCatalog();
  auto constraints = bitcoin::MakeBitcoinConstraints(catalog);
  ASSERT_TRUE(constraints.ok());
  Database db(std::move(catalog));
  auto analyze = [&](const char* text) {
    auto tmpl = ConstraintTemplate::Parse(text);
    EXPECT_TRUE(tmpl.ok()) << tmpl.status();
    return AnalyzeTemplate(*tmpl, db, *constraints).report;
  };
  // The dummy instance folds $lo > $hi to 0 > 0, but lo = 5, hi = 3
  // satisfies it: the class is the template's, with nothing to warn about.
  const AnalysisReport range = analyze("q() :- TxOut(t, s, p, a), $lo > $hi");
  ASSERT_TRUE(range.ok()) << range.ErrorSummary();
  EXPECT_FALSE(range.proved_unsat);
  EXPECT_EQ(range.tractability, TractabilityClass::kCoNpMixed);
  EXPECT_EQ(range.CountSeverity(Severity::kWarning), 0u);
  // A proof that needs no binding stands.
  const AnalysisReport self = analyze("q() :- TxOut(t, s, $pk, a), a < a");
  ASSERT_TRUE(self.ok()) << self.ErrorSummary();
  EXPECT_TRUE(self.proved_unsat);
  EXPECT_EQ(self.tractability, TractabilityClass::kTriviallyUnsat);
  EXPECT_TRUE(HasDiagnostic(self, AnalysisCode::kAlwaysFalseComparison));
  // Equal dummies would couple the two atoms; distinct bindings do not.
  const AnalysisReport pair =
      analyze("q() :- TxOut(t, s, $a, x), TxOut(u, r, $b, y)");
  ASSERT_TRUE(pair.ok()) << pair.ErrorSummary();
  EXPECT_FALSE(pair.analysis.connected);
  EXPECT_TRUE(HasDiagnostic(pair, AnalysisCode::kDisconnected));

  // The monitor reports that class for the template and its members.
  Catalog monitored = bitcoin::MakeBitcoinCatalog();
  auto monitored_constraints = bitcoin::MakeBitcoinConstraints(monitored);
  ASSERT_TRUE(monitored_constraints.ok());
  auto bdb = BlockchainDatabase::Create(std::move(monitored),
                                        *std::move(monitored_constraints));
  ASSERT_TRUE(bdb.ok());
  ConstraintMonitor monitor(&*bdb);
  auto tmpl = monitor.RegisterTemplate(
      "range", "q() :- TxOut(t, s, p, a), $lo > $hi");
  ASSERT_TRUE(tmpl.ok()) << tmpl.status();
  auto member = monitor.Bind(*tmpl, {Value::Int(5), Value::Int(3)});
  ASSERT_TRUE(member.ok()) << member.status();
  EXPECT_EQ(monitor.template_analysis(*tmpl)->tractability,
            TractabilityClass::kCoNpMixed);
  EXPECT_EQ(monitor.analysis(*member)->tractability,
            TractabilityClass::kCoNpMixed);
}

// --- The {key, ind} CoNP witness construction from the hardness proof:
// a key conflict decides which R-tuple exists, and the IND couples an
// S-tuple's world membership to that choice. The classifier must place the
// constraint in kCoNpMixed, and the classified dispatch must still decide
// the instance exactly like the general search. ---

TEST(AnalyzerHardnessFixtureTest, MixedKeyIndWitness) {
  Catalog catalog = MakeCatalog();
  ConstraintSet constraints = MakeConstraints(catalog, Sets::kMixed);
  auto db = BlockchainDatabase::Create(std::move(catalog),
                                       std::move(constraints));
  ASSERT_TRUE(db.ok());
  // Two pending R-tuples conflict on the key R(a); the S-tuple is only
  // possible in worlds whose R-choice witnesses the IND S[x] ⊆ R[a].
  Transaction t0("t0");
  t0.Add("R", Tuple({Value::Int(1), Value::Int(0)}));
  Transaction t1("t1");
  t1.Add("R", Tuple({Value::Int(1), Value::Int(7)}));
  Transaction t2("t2");
  t2.Add("S", Tuple({Value::Int(1), Value::Int(5)}));
  ASSERT_TRUE(db->AddPending(t0).ok());
  ASSERT_TRUE(db->AddPending(t1).ok());
  ASSERT_TRUE(db->AddPending(t2).ok());

  DcSatEngine engine(&*db);
  auto q = ParseDenialConstraint("q() :- S(x, y), R(x, 7)");
  ASSERT_TRUE(q.ok());
  AnalysisReport report = engine.Analyze(*q);
  ASSERT_TRUE(report.ok()) << report.ErrorSummary();
  EXPECT_EQ(report.tractability, TractabilityClass::kCoNpMixed);

  // q is realizable exactly in the world {t1, t2}.
  auto classified = engine.Check(*q);
  ASSERT_TRUE(classified.ok());
  DcSatOptions general_options;
  general_options.algorithm = GeneralSearchAlgorithm(*q, report.analysis);
  auto general = engine.Check(*q, general_options);
  ASSERT_TRUE(general.ok());
  EXPECT_FALSE(classified->satisfied);
  EXPECT_EQ(classified->satisfied, general->satisfied);
  ASSERT_TRUE(classified->witness.has_value());
  EXPECT_EQ(*classified->witness, *general->witness);
  // {t1, t2} is the only violating world: t0/t1 conflict on the key, and
  // only t1 supplies R(1, 7).
  std::vector<PendingId> sorted = *classified->witness;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<PendingId>{1, 2}));
}

// --- Classified engine dispatch. ---

TEST(ClassifiedDispatchTest, TriviallyUnsatShortCircuits) {
  Catalog catalog = MakeCatalog();
  auto db = BlockchainDatabase::Create(std::move(catalog),
                                       MakeConstraints(MakeCatalog(), Sets::kMixed));
  ASSERT_TRUE(db.ok());
  Transaction t0("t0");
  t0.Add("R", Tuple({Value::Int(1), Value::Int(2)}));
  ASSERT_TRUE(db->AddPending(t0).ok());
  DcSatEngine engine(&*db);
  auto q = ParseDenialConstraint("q() :- R(x, y), x != x");
  ASSERT_TRUE(q.ok());
  AnalysisReport report = engine.Analyze(*q);
  EXPECT_EQ(report.tractability, TractabilityClass::kTriviallyUnsat);
  auto result = engine.Check(*q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->decided);
  EXPECT_TRUE(result->satisfied);
  EXPECT_EQ(result->stats.algorithm_used, DcSatAlgorithm::kStatic);
  EXPECT_EQ(result->stats.num_worlds_evaluated, 0u);
  // The report-carrying path routes on the same class.
  auto compiled = CompiledQuery::Compile(*q, &db->database());
  ASSERT_TRUE(compiled.ok());
  auto prepared =
      engine.CheckPrepared(*compiled, Tuple(), report.tractability);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->stats.algorithm_used, DcSatAlgorithm::kStatic);
  // The general search agrees on the verdict.
  DcSatOptions general_options;
  general_options.algorithm = GeneralSearchAlgorithm(*q, report.analysis);
  auto general = engine.Check(*q, general_options);
  ASSERT_TRUE(general.ok());
  EXPECT_TRUE(general->satisfied);
}

TEST(ClassifiedDispatchTest, BadBindingRejected) {
  auto db = BlockchainDatabase::Create(MakeCatalog(),
                                       MakeConstraints(MakeCatalog(), Sets::kNone));
  ASSERT_TRUE(db.ok());
  DcSatEngine engine(&*db);
  engine.PrepareSteadyState();
  // The prepared path takes a plan and a binding; a binding the
  // instantiated query would be rejected for fails like the plan's
  // ValidateBinding, never as a vacuous verdict.
  auto q = ParseDenialConstraint("q() :- R($a, y)");
  ASSERT_TRUE(q.ok());
  auto compiled = CompiledQuery::Compile(*q, &db->database());
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const TractabilityClass klass = TractabilityClass::kCoNpMixed;
  EXPECT_TRUE(engine.CheckPrepared(*compiled, Tuple({Value::Int(1)}), klass)
                  .ok());
  for (const Tuple& bad : {Tuple(), Tuple({Value::Str("x")}),
                           Tuple({Value::Int(1), Value::Int(2)})}) {
    EXPECT_EQ(engine.CheckPrepared(*compiled, bad, klass).status().code(),
              StatusCode::kInvalidArgument)
        << bad.ToString();
  }
}

TEST(ClassifiedDispatchTest, AnalyzeBuildsNoIndex) {
  // Analysis decides legality with the compiler's validator and does not
  // compile, so it builds none of the hash indexes a plan would probe.
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "W", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false},
                            Attribute{"c", ValueType::kInt, false}}))
                  .ok());
  auto db = BlockchainDatabase::Create(std::move(catalog), ConstraintSet());
  ASSERT_TRUE(db.ok());
  DcSatEngine engine(&*db);
  const Relation& w = db->database().relation(*db->catalog().RelationId("W"));
  // Index ids are dense, so the id of an index over a new position set is
  // the number of indexes built before it.
  const std::size_t before = w.GetOrBuildIndex({0, 1, 2});
  // A plan for q probes W on position 1, the constant's.
  auto q = ParseDenialConstraint("q() :- W(x, 5, z)");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.Analyze(*q).ok());
  EXPECT_EQ(w.GetOrBuildIndex({0, 2}), before + 1);
  // Compiling does build it.
  ASSERT_TRUE(CompiledQuery::Compile(*q, &db->database()).ok());
  EXPECT_EQ(w.GetOrBuildIndex({0, 1}), before + 3);
}

// --- Monitor registration contract. ---

TEST(MonitorRegistrationTest, RejectsUnknownRelationAtAdd) {
  auto db = BlockchainDatabase::Create(MakeCatalog(),
                                       MakeConstraints(MakeCatalog(), Sets::kMixed));
  ASSERT_TRUE(db.ok());
  ConstraintMonitor monitor(&*db);
  // Regression for the old late-failure behaviour: the rejection happens at
  // Add, with the analyzer's diagnostic code in the message — Poll never
  // sees the entry.
  auto added = monitor.Add("bad", "q() :- Ghost(x, y)");
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(added.status().message().find("unknown-relation"),
            std::string::npos);
  EXPECT_EQ(monitor.size(), 0u);
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  EXPECT_TRUE(changes->empty());
}

TEST(MonitorRegistrationTest, RejectsUnsafeVariableWithAllDiagnostics) {
  auto db = BlockchainDatabase::Create(MakeCatalog(),
                                       MakeConstraints(MakeCatalog(), Sets::kMixed));
  ASSERT_TRUE(db.ok());
  ConstraintMonitor monitor(&*db);
  // Two defects at once: both appear in the rejection message.
  auto added = monitor.Add("bad", "q() :- R(x, y, z), w > 1");
  ASSERT_FALSE(added.ok());
  EXPECT_NE(added.status().message().find("arity-mismatch"),
            std::string::npos);
  EXPECT_NE(added.status().message().find("unsafe-variable"),
            std::string::npos);
}

TEST(MonitorRegistrationTest, AcceptedEntryExposesAnalysis) {
  auto db = BlockchainDatabase::Create(MakeCatalog(),
                                       MakeConstraints(MakeCatalog(), Sets::kMixed));
  ASSERT_TRUE(db.ok());
  ConstraintMonitor monitor(&*db);
  auto handle = monitor.Add("watch-s", "q() :- S(x, y)");
  ASSERT_TRUE(handle.ok());
  const AnalysisReport* report = monitor.analysis(*handle);
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->tractability, TractabilityClass::kCoNpMixed);
  // The IND-closed footprint watches R as well as S.
  EXPECT_EQ(report->footprint.size(), 2u);
  EXPECT_TRUE(report->analysis.monotone);
  EXPECT_TRUE(monitor.Remove(*handle).ok());
  EXPECT_EQ(monitor.analysis(*handle), nullptr);
}

// --- Schema description language. ---

TEST(SchemaTextTest, ParsesRelationsKeysFdsInds) {
  auto schema = ParseSchemaText(
      "# comment\n"
      "relation R(a int, b real nonneg)\n"
      "relation S(x int, t string)\n"
      "key R(a)\n"
      "fd S(x) -> (t)\n"
      "ind S(x) <= R(a)\n");
  ASSERT_TRUE(schema.ok()) << schema.status().message();
  EXPECT_EQ(schema->catalog.num_relations(), 2u);
  const RelationSchema& r = schema->catalog.schema(0);
  EXPECT_EQ(r.attribute(1).type, ValueType::kReal);
  EXPECT_TRUE(r.attribute(1).non_negative);
  EXPECT_EQ(schema->constraints.fds().size(), 2u);
  EXPECT_TRUE(schema->constraints.fds()[0].is_key());
  EXPECT_EQ(schema->constraints.inds().size(), 1u);
}

TEST(SchemaTextTest, ErrorsCarryLineNumbers) {
  auto bad_type = ParseSchemaText("relation R(a float)\n");
  ASSERT_FALSE(bad_type.ok());
  EXPECT_NE(bad_type.status().message().find("line 1"), std::string::npos);
  auto bad_ind = ParseSchemaText(
      "relation R(a int)\n"
      "\n"
      "ind R(a) <= Missing(b)\n");
  ASSERT_FALSE(bad_ind.ok());
  EXPECT_NE(bad_ind.status().message().find("line 3"), std::string::npos);
}

// --- Lint rendering. ---

TEST(LintFormatTest, JsonEscapesAndCounts) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  LintedConstraint c;
  c.text = "q() :- R(x, y)";
  c.line = 3;
  c.report.tractability = TractabilityClass::kPtimeFdOnly;
  c.report.analysis.monotone = true;
  c.report.diagnostics.push_back(Diagnostic{
      Severity::kError, AnalysisCode::kUnknownRelation, "msg \"quoted\"",
      SourceSpan{7, 4}});
  const std::string json = FormatFileJson("f.dc", {c});
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"class\": \"ptime-fd-only\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"offset\": 7"), std::string::npos);
}

TEST(LintFormatTest, TextRendersCaretUnderSpan) {
  LintedConstraint c;
  c.text = "q() :- Nope(x)";
  c.line = 2;
  c.report.diagnostics.push_back(Diagnostic{
      Severity::kError, AnalysisCode::kUnknownRelation, "no Nope",
      SourceSpan{7, 4}});
  const std::string text = FormatConstraintText("f.dc", c);
  EXPECT_NE(text.find("f.dc:2: error: no Nope [unknown-relation]"),
            std::string::npos);
  EXPECT_NE(text.find("       ^~~~"), std::string::npos);
}

TEST(LintFormatTest, TemplateLinesCarryClassKeyAndAdmission) {
  Database db(MakeCatalog());
  ConstraintSet constraints;
  auto tmpl = ConstraintTemplate::Parse("q() :- R($a, y)");
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().message();
  const TemplateAnalysis analysis = AnalyzeTemplate(*tmpl, db, constraints);
  ASSERT_TRUE(analysis.report.ok());
  EXPECT_TRUE(analysis.batchable);
  ASSERT_EQ(analysis.report.footprint, std::vector<std::size_t>{0});

  LintedConstraint c;
  c.text = "q() :- R($a, y)";
  c.line = 4;
  c.report = analysis.report;
  c.is_template = true;
  c.batchable = analysis.batchable;
  c.num_params = tmpl->num_params();
  c.skeleton = tmpl->CanonicalSkeleton();
  EXPECT_EQ(c.skeleton, "q() :- R($p0, v0)");

  // The class key is the skeleton followed by the IND-closed footprint.
  const std::string text = FormatConstraintText("f.dc", c);
  EXPECT_NE(text.find("f.dc:4: template (1 param)"), std::string::npos);
  EXPECT_NE(text.find("batch-admitted"), std::string::npos);
  EXPECT_NE(text.find("f.dc:4: class key: q() :- R($p0, v0)#fp:0\n"),
            std::string::npos);

  const std::string json = FormatFileJson("f.dc", {c});
  EXPECT_NE(json.find("\"template\": true"), std::string::npos);
  EXPECT_NE(json.find("\"params\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"batchable\": true"), std::string::npos);
  EXPECT_NE(json.find("\"class_key\": \"q() :- R($p0, v0)#fp:0\""),
            std::string::npos);

  // An alpha-renamed registration of the same skeleton shares the key: the
  // lint output is how an operator spots fleets that will share one class.
  auto renamed = ConstraintTemplate::Parse("q() :- R($other, z)");
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(renamed->CanonicalSkeleton(), c.skeleton);
}

}  // namespace
}  // namespace bcdb
