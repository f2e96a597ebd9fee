#include "analysis/analyzer.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <utility>

#include "query/compiled_query.h"
#include "query/parser.h"
#include "query/validate.h"
#include "util/union_find.h"

namespace bcdb {

const char* SeverityToString(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "?";
}

const char* AnalysisCodeToString(AnalysisCode code) {
  switch (code) {
    case AnalysisCode::kParseError:
      return "parse-error";
    case AnalysisCode::kNoPositiveAtoms:
      return "no-positive-atoms";
    case AnalysisCode::kUnknownRelation:
      return "unknown-relation";
    case AnalysisCode::kArityMismatch:
      return "arity-mismatch";
    case AnalysisCode::kConstantTypeMismatch:
      return "constant-type-mismatch";
    case AnalysisCode::kUnsafeVariable:
      return "unsafe-variable";
    case AnalysisCode::kBadAggregate:
      return "bad-aggregate";
    case AnalysisCode::kBadHead:
      return "bad-head";
    case AnalysisCode::kAlwaysFalseComparison:
      return "always-false-comparison";
    case AnalysisCode::kJoinTypeConflict:
      return "join-type-conflict";
    case AnalysisCode::kComparisonTypeMismatch:
      return "comparison-type-mismatch";
    case AnalysisCode::kAlreadyViolated:
      return "already-violated";
    case AnalysisCode::kNonMonotone:
      return "non-monotone";
    case AnalysisCode::kDisconnected:
      return "disconnected";
    case AnalysisCode::kMixedConstraintClass:
      return "mixed-constraint-class";
    case AnalysisCode::kGeneralQueryShape:
      return "general-query-shape";
    case AnalysisCode::kUnboundParameter:
      return "unbound-parameter";
  }
  return "?";
}

const char* TractabilityClassToString(TractabilityClass klass) {
  switch (klass) {
    case TractabilityClass::kTriviallyUnsat:
      return "trivially-unsat";
    case TractabilityClass::kTriviallyViolated:
      return "trivially-violated";
    case TractabilityClass::kPtimeFdOnly:
      return "ptime-fd-only";
    case TractabilityClass::kPtimeIndOnly:
      return "ptime-ind-only";
    case TractabilityClass::kCoNpMixed:
      return "conp-mixed";
  }
  return "?";
}

bool AnalysisReport::ok() const {
  return CountSeverity(Severity::kError) == 0;
}

std::size_t AnalysisReport::CountSeverity(Severity severity) const {
  std::size_t count = 0;
  for (const Diagnostic& diag : diagnostics) {
    if (diag.severity == severity) ++count;
  }
  return count;
}

std::string AnalysisReport::ErrorSummary() const {
  std::string summary;
  for (const Diagnostic& diag : diagnostics) {
    if (diag.severity != Severity::kError) continue;
    if (!summary.empty()) summary += "; ";
    summary += diag.message;
    summary += " [";
    summary += AnalysisCodeToString(diag.code);
    summary += "]";
  }
  return summary;
}

namespace {

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Best-effort span of the `occurrence`-th identifier-boundary match of
/// `name` in `text`. Zero length when absent or no text was supplied.
SourceSpan FindIdentifier(std::string_view text, std::string_view name,
                          std::size_t occurrence) {
  if (text.empty() || name.empty()) return {};
  std::size_t seen = 0;
  for (std::size_t pos = 0; pos + name.size() <= text.size(); ++pos) {
    if (text.compare(pos, name.size(), name) != 0) continue;
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const bool right_ok = pos + name.size() == text.size() ||
                          !IsIdentChar(text[pos + name.size()]);
    if (!left_ok || !right_ok) continue;
    if (seen++ == occurrence) return SourceSpan{pos, name.size()};
  }
  return {};
}

/// The diagnostic code of each DefectKind, in declaration order.
constexpr AnalysisCode kDefectCodes[] = {
    AnalysisCode::kNoPositiveAtoms,      AnalysisCode::kUnknownRelation,
    AnalysisCode::kArityMismatch,        AnalysisCode::kConstantTypeMismatch,
    AnalysisCode::kUnsafeVariable,       AnalysisCode::kBadAggregate,
    AnalysisCode::kBadHead};
static_assert(std::size(kDefectCodes) ==
              static_cast<std::size_t>(DefectKind::kBadHead) + 1);

/// Collects every diagnostic of one analysis pass, resolving spans against
/// the (possibly empty) source text.
class DiagnosticSink {
 public:
  explicit DiagnosticSink(std::string_view source_text)
      : source_text_(source_text) {}

  void Add(Severity severity, AnalysisCode code, std::string message,
           SourceSpan span = {}) {
    has_error_ = has_error_ || severity == Severity::kError;
    diagnostics_.push_back(
        Diagnostic{severity, code, std::move(message), span});
  }

  bool has_error() const { return has_error_; }

  /// Span of `name`'s `occurrence`-th identifier occurrence.
  SourceSpan SpanOf(std::string_view name, std::size_t occurrence = 0) const {
    return FindIdentifier(source_text_, name, occurrence);
  }

  /// Span of a term: variables, parameters (`$name`) and string constants
  /// locate their token, other constants fall back to the whole constraint.
  SourceSpan SpanOfTerm(const Term& term) const {
    if (term.is_variable()) return SpanOf(term.name());
    if (term.is_param()) return SpanOf("$" + term.name());
    if (term.value().type() == ValueType::kString) {
      return SpanOf(term.value().AsString());
    }
    return {};
  }

  /// Span of a validator defect in `q`: its term's token, else its atom's
  /// relation name at the atom's occurrence; an aggregate-shape defect
  /// points at the aggregate function, a missing positive atom at the whole
  /// text.
  SourceSpan SpanOfDefect(const QueryDefect& defect,
                          const DenialConstraint& q) const {
    if (defect.term.has_value()) {
      const SourceSpan span = SpanOfTerm(*defect.term);
      if (span.valid()) return span;
    }
    const SourceSpan whole{0, source_text_.size()};
    if (defect.kind == DefectKind::kBadAggregate) {
      const SourceSpan span =
          SpanOf(AggregateFunctionToString(q.aggregate->fn));
      return span.valid() ? span : whole;
    }
    if (defect.kind == DefectKind::kNoPositiveAtoms) return whole;
    return SpanOf(defect.relation, defect.occurrence);
  }

  /// One kError diagnostic per ValidateQuery defect of `q`: the check
  /// CompiledQuery::Compile fails on, so `q` compiles exactly when none is
  /// added.
  void AddDefects(const DenialConstraint& q, const Catalog& catalog) {
    for (const QueryDefect& defect : ValidateQuery(q, catalog)) {
      Add(Severity::kError, kDefectCodes[static_cast<std::size_t>(defect.kind)],
          defect.message, SpanOfDefect(defect, q));
    }
  }

  std::vector<Diagnostic> Take() { return std::move(diagnostics_); }

 private:
  std::string_view source_text_;
  std::vector<Diagnostic> diagnostics_;
  bool has_error_ = false;
};

/// Coarse static type of a term: definitely-numeric, definitely-string, or
/// unknown (mixed/unconstrained). Int and Real compare numerically, so they
/// share one bucket; numeric-vs-string never matches under Value equality.
enum class CoarseType { kUnknown, kNumeric, kString };

CoarseType CoarseOf(ValueType type) {
  switch (type) {
    case ValueType::kInt:
    case ValueType::kReal:
      return CoarseType::kNumeric;
    case ValueType::kString:
      return CoarseType::kString;
    case ValueType::kNull:
      return CoarseType::kUnknown;
  }
  return CoarseType::kUnknown;
}

/// Relation id of `atom` if the name binds and the arity matches; nullopt
/// otherwise (those defects carry their own diagnostics).
std::optional<std::size_t> BoundRelation(const Atom& atom,
                                         const Catalog& catalog) {
  StatusOr<std::size_t> id = catalog.RelationId(atom.relation);
  if (!id.ok()) return std::nullopt;
  if (atom.args.size() != catalog.schema(*id).arity()) return std::nullopt;
  return *id;
}

/// Shared state of the unsatisfiability core: a union-find over the
/// variables of `q` with `=`-comparisons applied, per-class constant
/// bindings, and per-variable coarse types from positive-atom positions.
class UnsatCore {
 public:
  UnsatCore(const DenialConstraint& q, const Catalog& catalog) : q_(q) {
    ForEachTerm(q, [&](const Term& term) {
      if (term.is_variable()) {
        var_ids_.emplace(term.name(), var_ids_.size());
      }
    });
    uf_ = UnionFind(var_ids_.size());
    for (const Comparison& cmp : q.comparisons) {
      if (cmp.op != ComparisonOp::kEq) continue;
      if (cmp.lhs.is_variable() && cmp.rhs.is_variable()) {
        uf_.Union(var_ids_.at(cmp.lhs.name()), var_ids_.at(cmp.rhs.name()));
      }
    }
    // Coarse types from positive-atom occurrences (where bindings happen).
    var_types_.resize(var_ids_.size(), CoarseType::kUnknown);
    for (const Atom& atom : q.positive_atoms) {
      const std::optional<std::size_t> rel_id = BoundRelation(atom, catalog);
      if (!rel_id.has_value()) continue;
      const RelationSchema& schema = catalog.schema(*rel_id);
      for (std::size_t i = 0; i < atom.args.size(); ++i) {
        if (!atom.args[i].is_variable()) continue;
        const std::size_t var = var_ids_.at(atom.args[i].name());
        const CoarseType here = CoarseOf(schema.attribute(i).type);
        if (here == CoarseType::kUnknown) continue;
        if (var_types_[var] == CoarseType::kUnknown) {
          var_types_[var] = here;
        } else if (var_types_[var] != here) {
          type_conflict_var_ = atom.args[i].name();
        }
      }
    }
  }

  /// A variable provably joining numeric and string attributes, if any.
  const std::optional<std::string>& type_conflict_var() const {
    return type_conflict_var_;
  }

  /// Constant bound to `term`'s equality class via `=`-chains, or the term's
  /// own value for constants. Records conflicting bindings.
  std::optional<Value> ResolveConstant(const Term& term) {
    if (!term.is_variable()) return term.value();
    auto it = bindings_.find(ClassOf(term));
    if (it == bindings_.end()) return std::nullopt;
    return it->second;
  }

  /// Applies every `var = const` comparison; returns the first pair of
  /// conflicting constants bound to one class, if any.
  std::optional<std::pair<Value, Value>> BindConstants() {
    for (const Comparison& cmp : q_.comparisons) {
      if (cmp.op != ComparisonOp::kEq) continue;
      const Term* var = nullptr;
      const Term* constant = nullptr;
      if (cmp.lhs.is_variable() && !cmp.rhs.is_variable()) {
        var = &cmp.lhs;
        constant = &cmp.rhs;
      } else if (!cmp.lhs.is_variable() && cmp.rhs.is_variable()) {
        var = &cmp.rhs;
        constant = &cmp.lhs;
      } else {
        continue;
      }
      const std::size_t klass = ClassOf(*var);
      auto [it, inserted] = bindings_.emplace(klass, constant->value());
      if (!inserted && !(it->second == constant->value())) {
        return std::make_pair(it->second, constant->value());
      }
    }
    return std::nullopt;
  }

  /// Same equality class (variables only; constants never share a class).
  bool SameClass(const Term& a, const Term& b) {
    if (!a.is_variable() || !b.is_variable()) return false;
    return ClassOf(a) == ClassOf(b);
  }

  /// Coarse type of a term: a constant's own type, or the union of the
  /// variable's class's attribute types and bound constants.
  CoarseType TypeOf(const Term& term) {
    if (!term.is_variable()) return CoarseOf(term.value().type());
    CoarseType result = var_types_[var_ids_.at(term.name())];
    if (result == CoarseType::kUnknown) {
      const std::optional<Value> bound = ResolveConstant(term);
      if (bound.has_value()) result = CoarseOf(bound->type());
    }
    return result;
  }

 private:
  std::size_t ClassOf(const Term& var) {
    return uf_.Find(var_ids_.at(var.name()));
  }

  const DenialConstraint& q_;
  std::map<std::string, std::size_t> var_ids_;
  UnionFind uf_{0};
  std::vector<CoarseType> var_types_;
  std::map<std::size_t, Value> bindings_;
  std::optional<std::string> type_conflict_var_;
};

/// The unsatisfiability pass: true when `q` provably has no satisfying
/// assignment over any instance of `catalog`. When `sink` is non-null the
/// pass explains each proof step as a diagnostic.
bool RunUnsatCore(const DenialConstraint& q, const Catalog& catalog,
                  DiagnosticSink* sink) {
  UnsatCore core(q, catalog);
  bool unsat = false;

  if (core.type_conflict_var().has_value()) {
    unsat = true;
    if (sink != nullptr) {
      sink->Add(Severity::kWarning, AnalysisCode::kJoinTypeConflict,
                "variable '" + *core.type_conflict_var() +
                    "' joins numeric and string attributes; no tuple pair "
                    "can ever match, the constraint is vacuously satisfied",
                sink->SpanOf(*core.type_conflict_var()));
    }
  }

  const std::optional<std::pair<Value, Value>> conflict = core.BindConstants();
  if (conflict.has_value()) {
    unsat = true;
    if (sink != nullptr) {
      sink->Add(Severity::kWarning, AnalysisCode::kAlwaysFalseComparison,
                "equality chain binds one variable to both " +
                    conflict->first.ToString() + " and " +
                    conflict->second.ToString() +
                    "; the body can never be satisfied");
    }
  }

  for (const Comparison& cmp : q.comparisons) {
    // Irreflexive comparison over one equality class: x != x, x < x, x > x.
    if (core.SameClass(cmp.lhs, cmp.rhs) &&
        (cmp.op == ComparisonOp::kNe || cmp.op == ComparisonOp::kLt ||
         cmp.op == ComparisonOp::kGt)) {
      unsat = true;
      if (sink != nullptr) {
        sink->Add(Severity::kWarning, AnalysisCode::kAlwaysFalseComparison,
                  "comparison " + cmp.ToString() +
                      " relates a value to itself and can never hold",
                  sink->SpanOfTerm(cmp.lhs));
      }
      continue;
    }
    // Constant folding after `=`-propagation: both sides resolve to known
    // constants (literal, or a class bound to one).
    const std::optional<Value> lhs = core.ResolveConstant(cmp.lhs);
    const std::optional<Value> rhs = core.ResolveConstant(cmp.rhs);
    if (lhs.has_value() && rhs.has_value()) {
      if (!EvaluateComparison(*lhs, cmp.op, *rhs)) {
        unsat = true;
        if (sink != nullptr) {
          sink->Add(Severity::kWarning, AnalysisCode::kAlwaysFalseComparison,
                    "comparison " + cmp.ToString() + " folds to " +
                        lhs->ToString() + " " + ComparisonOpToString(cmp.op) +
                        " " + rhs->ToString() + ", which is false",
                    sink->SpanOfTerm(cmp.lhs));
        }
      }
      continue;
    }
    // Cross-type comparison: the total Value order decides numeric-vs-string
    // comparisons by type tag alone, so the outcome is a constant.
    const CoarseType lhs_type = core.TypeOf(cmp.lhs);
    const CoarseType rhs_type = core.TypeOf(cmp.rhs);
    if (lhs_type != CoarseType::kUnknown && rhs_type != CoarseType::kUnknown &&
        lhs_type != rhs_type) {
      // Numeric sorts before string in the type-tag order.
      const bool lhs_smaller = lhs_type == CoarseType::kNumeric;
      bool holds = false;
      switch (cmp.op) {
        case ComparisonOp::kEq:
          holds = false;
          break;
        case ComparisonOp::kNe:
          holds = true;
          break;
        case ComparisonOp::kLt:
        case ComparisonOp::kLe:
          holds = lhs_smaller;
          break;
        case ComparisonOp::kGt:
        case ComparisonOp::kGe:
          holds = !lhs_smaller;
          break;
      }
      if (sink != nullptr) {
        sink->Add(Severity::kWarning, AnalysisCode::kComparisonTypeMismatch,
                  "comparison " + cmp.ToString() +
                      " mixes numeric and string operands; under the total "
                      "value order it is always " +
                      (holds ? "true (redundant)" : "false"),
                  sink->SpanOfTerm(cmp.lhs));
      }
      if (!holds) unsat = true;
    }
  }
  return unsat;
}

/// The passes after validation: the unsat proof, monotonicity,
/// connectivity, footprint and class, with their diagnostics (notes only
/// while `sink` holds no error). A template comes with each parameter as a
/// variable (`$name`), so nothing derived depends on its value.
void DeriveClassFacts(const DenialConstraint& q, const Catalog& catalog,
                      const ConstraintSet& constraints, DiagnosticSink& sink,
                      AnalysisReport& report) {
  // --- Unsatisfiability core (folding, bindings, type conflicts). ---
  report.proved_unsat = RunUnsatCore(q, catalog, &sink);

  // --- Monotonicity and connectivity. ---
  report.analysis = AnalyzeQuery(q, catalog);
  const QueryAnalysis& analysis = report.analysis;
  // Derived-fact notes are suppressed for erroneous constraints: the
  // classification is only meaningful once the errors are fixed.
  if (!analysis.monotone && !sink.has_error()) {
    sink.Add(Severity::kNote, AnalysisCode::kNonMonotone,
             "not proved monotone (" + analysis.monotone_reason +
                 "); the exhaustive possible-world search applies and the "
                 "monitor re-checks on every mutation");
  }
  if (!q.is_aggregate() && q.positive_atoms.size() > 1 &&
      !analysis.connected && !sink.has_error()) {
    sink.Add(Severity::kNote, AnalysisCode::kDisconnected,
             "the Gaifman graph is disconnected; OptDCSat's per-component "
             "split does not apply (NaiveDCSat runs instead)");
  }

  // --- Dichotomy classification. ---
  report.footprint = IndClosedFootprint(q, catalog, constraints);
  report.tractability =
      ClassifyConstraint(q, analysis, constraints, report.proved_unsat);
  const bool has_fds = !constraints.fds().empty();
  const bool has_inds = !constraints.inds().empty();
  if (report.tractability == TractabilityClass::kCoNpMixed &&
      !sink.has_error()) {
    if (has_fds && has_inds) {
      sink.Add(Severity::kNote, AnalysisCode::kMixedConstraintClass,
               "keys/FDs mix with inclusion dependencies: DCSat is "
               "CoNP-complete for this class (Theorem 1); a check budget is "
               "advisable");
    } else {
      sink.Add(Severity::kNote, AnalysisCode::kGeneralQueryShape,
               "the constraint set is one-sided but the query falls outside "
               "the proven-PTIME fragment (" +
                   std::string(has_fds ? "FD-only needs a positive "
                                         "non-aggregate conjunctive query"
                                       : "IND-only needs a monotone query") +
                   "); the general search applies");
    }
  }
}

}  // namespace

bool ProvedUnsatisfiable(const DenialConstraint& q, const Catalog& catalog) {
  return RunUnsatCore(q, catalog, nullptr);
}

std::vector<std::size_t> IndClosedFootprint(const DenialConstraint& q,
                                            const Catalog& catalog,
                                            const ConstraintSet& constraints) {
  const std::size_t num_relations = catalog.num_relations();
  UnionFind coupling(num_relations);
  for (const InclusionDependency& ind : constraints.inds()) {
    coupling.Union(ind.lhs_relation_id(), ind.rhs_relation_id());
  }
  std::vector<std::size_t> direct;
  for (const std::vector<Atom>* atoms :
       {&q.positive_atoms, &q.negated_atoms}) {
    for (const Atom& atom : *atoms) {
      StatusOr<std::size_t> rel_id = catalog.RelationId(atom.relation);
      if (!rel_id.ok()) continue;  // Unknown relations carry diagnostics.
      if (std::find(direct.begin(), direct.end(), *rel_id) == direct.end()) {
        direct.push_back(*rel_id);
      }
    }
  }
  std::vector<std::size_t> footprint;
  for (std::size_t r = 0; r < num_relations; ++r) {
    for (std::size_t d : direct) {
      if (coupling.Find(r) == coupling.Find(d)) {
        footprint.push_back(r);
        break;
      }
    }
  }
  return footprint;
}

TractabilityClass ClassifyConstraint(const DenialConstraint& q,
                                     const QueryAnalysis& analysis,
                                     const ConstraintSet& constraints,
                                     bool proved_unsat) {
  if (proved_unsat) return TractabilityClass::kTriviallyUnsat;
  const bool has_fds = !constraints.fds().empty();
  const bool has_inds = !constraints.inds().empty();
  // TryTractableDcSat runs whichever PTIME procedure the class names, so
  // these gates are the fragments' preconditions.
  if (!has_fds) {
    return analysis.monotone ? TractabilityClass::kPtimeIndOnly
                             : TractabilityClass::kCoNpMixed;
  }
  if (!has_inds && !q.is_aggregate() && q.negated_atoms.empty()) {
    return TractabilityClass::kPtimeFdOnly;
  }
  return TractabilityClass::kCoNpMixed;
}

AnalysisReport AnalyzeConstraint(const DenialConstraint& q, const Database& db,
                                 const ConstraintSet& constraints,
                                 const AnalyzerOptions& options) {
  const Catalog& catalog = db.catalog();
  DiagnosticSink sink(options.source_text);
  AnalysisReport report;

  // --- Unbound template parameters. ---
  // Every later pass treats terms as variable-or-constant, so parameters
  // must be rejected up front (the rest of the analysis would misread them).
  const std::vector<std::string> params = ParamNames(q);
  if (!params.empty()) {
    for (const std::string& name : params) {
      sink.Add(Severity::kError, AnalysisCode::kUnboundParameter,
               "unbound parameter '$" + name +
                   "'; register the constraint as a template and bind it",
               sink.SpanOf(name));
    }
    report.diagnostics = sink.Take();
    return report;
  }

  // --- Schema binding, safety, aggregate and head shape. ---
  sink.AddDefects(q, catalog);
  DeriveClassFacts(q, catalog, constraints, sink, report);

  // --- Base-state probe: the only compile, since evaluating q needs one. ---
  if (options.check_base_state && !report.proved_unsat && !sink.has_error()) {
    StatusOr<CompiledQuery> compiled = CompiledQuery::Compile(q, &db);
    if (compiled.ok() && compiled->Evaluate(db.BaseView())) {
      sink.Add(Severity::kWarning, AnalysisCode::kAlreadyViolated,
               "the constraint is already violated by the current state R "
               "alone; every possible world inherits the violation");
      report.tractability = TractabilityClass::kTriviallyViolated;
    }
  }

  report.diagnostics = sink.Take();
  return report;
}

TemplateAnalysis AnalyzeTemplate(const ConstraintTemplate& tmpl,
                                 const Database& db,
                                 const ConstraintSet& constraints,
                                 const AnalyzerOptions& options) {
  const Catalog& catalog = db.catalog();
  DiagnosticSink sink(options.source_text);
  TemplateAnalysis result;
  // Admission is the class plan's own check, parameters bound: the
  // template is admitted exactly when its plan compiles.
  sink.AddDefects(tmpl.constraint(), catalog);
  // Every class fact comes from the template with its parameters as
  // variables of unknown value, so it holds for every binding. (The
  // generalized query of a projectable template is the same query with a
  // head.)
  DenialConstraint general = tmpl.Generalized();
  general.head_vars.clear();
  DeriveClassFacts(general, catalog, constraints, sink, result.report);
  result.report.diagnostics = sink.Take();
  result.batchable = tmpl.projectable() && result.report.ok();
  return result;
}

AnalysisReport AnalyzeConstraintText(std::string_view text, const Database& db,
                                     const ConstraintSet& constraints,
                                     AnalyzerOptions options) {
  options.source_text = text;
  std::size_t error_offset = 0;
  StatusOr<DenialConstraint> q = ParseDenialConstraint(text, &error_offset);
  if (!q.ok()) {
    AnalysisReport report;
    report.diagnostics.push_back(
        Diagnostic{Severity::kError, AnalysisCode::kParseError,
                   q.status().message(), SourceSpan{error_offset, 1}});
    return report;
  }
  return AnalyzeConstraint(*q, db, constraints, options);
}

}  // namespace bcdb
