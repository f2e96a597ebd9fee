#ifndef BCDB_ANALYSIS_ANALYZER_H_
#define BCDB_ANALYSIS_ANALYZER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "constraints/constraint.h"
#include "query/analysis.h"
#include "query/ast.h"
#include "query/template.h"
#include "relational/database.h"
#include "relational/schema.h"
#include "util/status.h"

namespace bcdb {

/// Severity of one analyzer diagnostic. Reports with a kError diagnostic
/// describe constraints that must not be registered or executed; kWarning
/// marks well-formed constraints whose behaviour is almost certainly not
/// what the author intended (vacuously satisfied, already violated);
/// kNote records derived facts that shape dispatch (class, monotonicity).
enum class Severity {
  kError,
  kWarning,
  kNote,
};

const char* SeverityToString(Severity severity);

/// Stable machine-readable diagnostic kinds (one per distinct defect or
/// derived fact), used by tests and by bcdb_lint's JSON output.
enum class AnalysisCode {
  kParseError,              // error: the constraint text does not parse.
  kNoPositiveAtoms,         // error: a query needs at least one positive atom.
  kUnknownRelation,         // error: atom references a relation not in the catalog.
  kArityMismatch,           // error: atom arity != schema arity.
  kConstantTypeMismatch,    // error: constant term incompatible with attribute type.
  kUnsafeVariable,          // error: negated-atom / comparison / aggregate-head
                            //        variable unbound by any positive atom.
  kBadAggregate,            // error: malformed aggregate head (non-variable
                            //        args, value aggregate without exactly one).
  kBadHead,                 // error: a head term that is not a variable.
  kAlwaysFalseComparison,   // warning: a comparison can never hold (constant
                            //          fold, x < x, conflicting constants).
  kJoinTypeConflict,        // warning: one variable joins attributes of
                            //          incompatible types; no tuple pair matches.
  kComparisonTypeMismatch,  // warning: comparison across incompatible types
                            //          (legal under the total Value order,
                            //          almost never intended).
  kAlreadyViolated,         // warning: q is true over the current state R.
  kNonMonotone,             // note: not proved monotone (reason attached).
  kDisconnected,            // note: Gaifman graph disconnected; OptDCSat's
                            //       component split does not apply.
  kMixedConstraintClass,    // note: keys/FDs mixed with INDs — DCSat is
                            //       CoNP-complete (Theorem 1); budgets advised.
  kGeneralQueryShape,       // note: one-sided constraint set, but the query
                            //       falls outside the proven-PTIME fragment.
  kUnboundParameter,        // error: a template parameter ($name) reached the
                            //        analyzer without a binding.
};

const char* AnalysisCodeToString(AnalysisCode code);

/// Byte range into the constraint's source text. Only meaningful when the
/// analyzer was given the text (AnalyzeConstraintText); zero-length spans
/// mean "the whole constraint".
struct SourceSpan {
  std::size_t offset = 0;
  std::size_t length = 0;

  bool valid() const { return length > 0; }
};

struct Diagnostic {
  Severity severity = Severity::kNote;
  AnalysisCode code = AnalysisCode::kParseError;
  std::string message;
  SourceSpan span;
};

/// Where a (query, constraint-set) pair lands in the paper's Theorem-1
/// dichotomy, extended with the two statically decided corners. Meaningful
/// only when the report carries no kError diagnostic.
enum class TractabilityClass {
  /// q provably has no satisfying assignment in any world (always-false
  /// comparison, conflicting constant bindings, join type conflict): the
  /// denial constraint holds vacuously, no search ever needed.
  kTriviallyUnsat,
  /// q is already true over the current state R alone: the bad outcome
  /// happened, every future keeps it (insert-only semantics).
  kTriviallyViolated,
  /// ∆ ⊆ {key, fd} and q is a positive non-aggregate conjunctive query:
  /// DCSat is PTIME via the assignment-support check (Theorem 1).
  kPtimeFdOnly,
  /// ∆ ⊆ {ind} (or empty) and q is proved monotone: Poss(D) has a unique
  /// maximal world, DCSat is one query evaluation (Theorems 1 and 2).
  kPtimeIndOnly,
  /// No polynomial guarantee: keys/FDs mix with INDs (CoNP-complete,
  /// Theorem 1), or the query falls outside the proven fragment (negation,
  /// non-monotone aggregate). The general clique / possible-world search
  /// applies and deadline budgets are advisable.
  kCoNpMixed,
};

const char* TractabilityClassToString(TractabilityClass klass);

struct AnalyzerOptions {
  /// Evaluate q over the current state R and classify kTriviallyViolated
  /// when it already holds. Costs one query evaluation; engine-internal
  /// callers that re-check R themselves turn it off.
  bool check_base_state = true;
  /// Original constraint text; enables source spans on diagnostics.
  std::string_view source_text;
};

/// Everything the static analyzer derives about one denial constraint
/// against one catalog + integrity-constraint set.
struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  /// Monotonicity (with the classifier's reason) and Gaifman connectivity,
  /// as AnalyzeQuery derives them.
  QueryAnalysis analysis;
  /// Statically proved to have no satisfying assignment in any world.
  bool proved_unsat = false;
  TractabilityClass tractability = TractabilityClass::kCoNpMixed;
  /// Relations whose mutations can ever change the constraint's verdict:
  /// the referenced relations closed under IND coupling. Sorted ascending.
  std::vector<std::size_t> footprint;

  /// No kError diagnostic: the constraint may be registered and executed.
  bool ok() const;
  std::size_t CountSeverity(Severity severity) const;
  /// First kError message (with every further error appended after "; "),
  /// for embedding in a rejection Status. Empty when ok().
  std::string ErrorSummary() const;
};

/// Statically analyzes `q` against `db`'s catalog, base state, and the
/// integrity constraints `constraints`. Never fails: defects come back as
/// kError diagnostics inside the report. The schema, safety, aggregate and
/// head errors are ValidateQuery's defects, the check CompiledQuery::Compile
/// fails on, so a ground query's report is ok() exactly when it compiles.
/// Compiles q only for the base-state probe (`check_base_state`).
AnalysisReport AnalyzeConstraint(const DenialConstraint& q, const Database& db,
                                 const ConstraintSet& constraints,
                                 const AnalyzerOptions& options = {});

/// Parses `text` and analyzes the result; a parse failure yields a report
/// whose single kError diagnostic carries the parser message (and a span at
/// the offending offset when the parser reports one).
AnalysisReport AnalyzeConstraintText(std::string_view text, const Database& db,
                                     const ConstraintSet& constraints,
                                     AnalyzerOptions options = {});

/// Everything the analyzer derives about a whole template class.
struct TemplateAnalysis {
  /// The class-level report. A dummy-typed instance decides admission (its
  /// errors are binding-independent); an admitted template's facts — unsat
  /// proof, monotonicity, connectivity, tractability, footprint and their
  /// diagnostics — come from the template with each parameter a variable
  /// of unknown value, so they hold for every binding.
  AnalysisReport report;
  /// Projectable and admitted: a monitor may settle the class's members by
  /// answer passes over Generalized().
  bool batchable = false;
  /// The isomorphism-class key (ClassKey): canonical α-renamed skeleton
  /// plus the IND-closed footprint, which bcdb_lint prints so an operator
  /// can see which constraints ConstraintMonitor::Add would put in one
  /// class.
  std::string class_key;
};

/// Statically analyzes a constraint template: admission (schema, arity,
/// safety, cross-type parameters — checked on a dummy-typed instance so the
/// errors are binding-independent), batchability, the class-level report,
/// and the canonicalization key. Never fails; defects come back as kError
/// diagnostics inside the report. No class fact depends on the dummy: a
/// template whose unsat proof needs its binding (`$lo > $hi`) is not
/// classed trivially-unsat.
TemplateAnalysis AnalyzeTemplate(const ConstraintTemplate& tmpl,
                                 const Database& db,
                                 const ConstraintSet& constraints,
                                 const AnalyzerOptions& options = {});

/// The isomorphism-class key of `tmpl` over `footprint` (its IND-closed
/// relation ids): TemplateAnalysis::class_key. It is an exact identity only
/// for a constant-free template over catalog relations, such as
/// Canonicalize makes of a constraint the analyzer accepted: its skeleton
/// text then holds only relation names, α-renamed variables and parameters,
/// and operators. A hand-written template's constants print as display
/// text, so its key is for display (bcdb_lint) only.
std::string ClassKey(const ConstraintTemplate& tmpl,
                     const std::vector<std::size_t>& footprint);

/// The cheap classification core and the engine's only routing decision
/// (DcSatEngine caches it per compiled query): no diagnostics, no
/// base-state probe. `proved_unsat` comes from ProvedUnsatisfiable (or a
/// cached report).
TractabilityClass ClassifyConstraint(const DenialConstraint& q,
                                     const QueryAnalysis& analysis,
                                     const ConstraintSet& constraints,
                                     bool proved_unsat);

/// True when `q` provably has no satisfying assignment in any world over
/// any database with this catalog: an always-false comparison survives
/// constant folding, equality chains bind one variable class to two
/// distinct constants, an irreflexive comparison loops on one class, or a
/// variable joins attributes of incompatible types. Purely syntactic;
/// `false` means "not proved", not "satisfiable".
bool ProvedUnsatisfiable(const DenialConstraint& q, const Catalog& catalog);

/// The IND-closed watch set: every relation sharing an IND-coupling class
/// with a relation `q` references (positive or negated atoms). Sorted
/// ascending. Unknown relation names are skipped (they carry their own
/// kError diagnostics).
std::vector<std::size_t> IndClosedFootprint(const DenialConstraint& q,
                                            const Catalog& catalog,
                                            const ConstraintSet& constraints);

}  // namespace bcdb

#endif  // BCDB_ANALYSIS_ANALYZER_H_
