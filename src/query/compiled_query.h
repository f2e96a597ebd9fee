#ifndef BCDB_QUERY_COMPILED_QUERY_H_
#define BCDB_QUERY_COMPILED_QUERY_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "query/analysis.h"
#include "query/ast.h"
#include "relational/database.h"
#include "relational/world_view.h"
#include "util/status.h"

namespace bcdb {

/// A denial constraint compiled against one database: schema-validated,
/// safety-checked, with a greedy bound-first join order and hash indexes
/// pre-built for every lookup the plan performs.
///
/// Compile once, then call Evaluate with many different world views — this
/// is exactly the access pattern of the DCSat algorithms, which probe the
/// same constraint over every maximal possible world. A plan depends only on
/// the query's structure, never on the data: the join order is chosen by how
/// many positions each atom has bound, the relations maintain their indexes
/// on insert (readers re-check visibility), and size hints read tuple counts
/// when the query runs. So one plan stays valid across every later mutation
/// of the database.
///
/// Template parameters (`$name` terms) compile to *parameter slots*:
/// variables bound from the binding passed to Evaluate before the first join
/// step. They count as bound when the join order and index keys are chosen,
/// and may occur in positive and negated atoms, comparisons and an aggregate
/// threshold. `Compile(t).Evaluate(view, b)` equals
/// `Compile(t.Instantiate(b)).Evaluate(view)`, and likewise for
/// CoversConstants and EnumerateSupports; a ground query takes the empty
/// binding.
class CompiledQuery {
 public:
  /// Validates `q` against `db`'s catalog with ValidateQuery (the check the
  /// static analyzer reports from) and builds the evaluation plan. Fails
  /// with the first defect: NotFound for an unknown relation,
  /// InvalidArgument for every other. `db` must outlive the compiled query.
  static StatusOr<CompiledQuery> Compile(const DenialConstraint& q,
                                         const Database* db);

  /// Number of parameter slots; 0 for a ground query. Slot i is
  /// ParamNames(q)[i] (query/ast.h), the order of ConstraintTemplate's
  /// param_names(), and variable_names()[i] is its `$`-prefixed name.
  std::size_t num_params() const { return num_params_; }

  /// OK for a ground query; InvalidArgument naming the first parameter
  /// otherwise. For callers that evaluate without a binding.
  Status RequireGround() const;

  /// Rejects every binding the compile of the instantiated query would
  /// reject: a wrong number of values, or a value whose type does not fit an
  /// atom attribute it fills (the rule for constant terms).
  Status ValidateBinding(const Tuple& binding) const;

  /// True iff `q` has a satisfying assignment over the tuples visible in
  /// `view` (for aggregate constraints: iff `α(B) θ c` holds, with the empty
  /// bag evaluating to false, matching the paper's SQL-like semantics).
  /// `binding` fills the parameter slots in order; false when its arity is
  /// not num_params().
  bool Evaluate(const WorldView& view, const Tuple& binding) const;
  bool Evaluate(const WorldView& view) const { return Evaluate(view, Tuple()); }

  /// True iff every positive atom's constants are covered by some tuple
  /// visible in `view` (the Covers(R, T, q) test of OptDCSat). A parameter
  /// position is probed with its value in `binding`, so the answer equals
  /// the grounded plan's; false when the binding's arity is not
  /// num_params().
  bool CoversConstants(const WorldView& view, const Tuple& binding) const;
  bool CoversConstants(const WorldView& view) const {
    return CoversConstants(view, Tuple());
  }

  /// For answer-producing ground queries (non-empty head): invokes
  /// `callback` once per *distinct* head-projection of a satisfying
  /// assignment, in discovery order. Return false from the callback to stop
  /// early. No-op for aggregate queries (which have no head) and for queries
  /// with parameters.
  void EnumerateAnswers(const WorldView& view,
                        const std::function<bool(const Tuple&)>& callback) const;

  /// All distinct answers over `view` (set semantics).
  std::vector<Tuple> Answers(const WorldView& view) const;

  bool has_head() const { return !head_var_ids_.empty(); }

  /// One matched positive-atom tuple of a satisfying assignment.
  struct SupportEntry {
    std::size_t relation_id;
    TupleId tuple_id;
  };

  /// For non-aggregate queries: invokes `callback` once per satisfying
  /// assignment under `binding` with the tuples matched by the positive
  /// atoms (in plan order). Return false to stop. Used by the
  /// tractable-fragment DCSat fast paths, which must reason about *who
  /// contributed* each tuple.
  void EnumerateSupports(
      const WorldView& view, const Tuple& binding,
      const std::function<bool(const std::vector<SupportEntry>&)>& callback)
      const;

  /// Human-readable rendering of the chosen join order: one line per step
  /// with the access path (index key positions or full scan) and the
  /// residual checks attached to it. For diagnostics and the shell.
  std::string ExplainPlan() const;

  /// Structural analysis of the source constraint (monotonicity,
  /// connectedness), computed once at compile time — both are functions of
  /// (query, catalog) alone, so re-deriving them per check is pure waste on
  /// the DCSat hot path.
  const QueryAnalysis& analysis() const { return analysis_; }

  /// Θ_q: the equality constraints implied by the query's join structure
  /// (shared variables / constants across positive atoms), precomputed at
  /// compile time for the same reason.
  const std::vector<EqualityConstraint>& equalities() const {
    return equalities_;
  }

  const DenialConstraint& source() const { return source_; }
  std::size_t num_variables() const { return variable_names_.size(); }
  const std::vector<std::string>& variable_names() const {
    return variable_names_;
  }
  /// True if the aggregated variable is known non-negative (schema hint) —
  /// makes sum-aggregates monotone under insertion.
  bool aggregate_arg_non_negative() const {
    return aggregate_arg_non_negative_;
  }

  /// Stored tuples (visible or not) of the relation the plan's first step
  /// scans or probes — what one answer enumeration reads at least once.
  std::size_t driving_tuples() const;

 private:
  /// A term resolved to either a constant or a variable slot. Constants are
  /// interned at compile time so evaluation compares ids, never values.
  struct Arg {
    bool is_var = false;
    std::size_t var = 0;
    Value constant;
    ValueId constant_id = kNullValueId;
  };

  /// What to do with one tuple position when matching a candidate.
  struct ArgAction {
    enum Kind { kCheckConst, kCheckVar, kBind };
    Kind kind;
    std::size_t position;
    std::size_t var = 0;                  // kCheckVar / kBind
    ValueId constant_id = kNullValueId;   // kCheckConst
  };

  struct CmpCheck {
    Arg lhs;
    ComparisonOp op;
    Arg rhs;
  };

  struct NegCheck {
    std::size_t relation_id;
    std::vector<Arg> args;
  };

  /// One parameter occurrence in an atom, for ValidateBinding's type rule.
  struct ParamTypeCheck {
    std::size_t slot;
    std::size_t relation_id;
    std::size_t position;
    std::string atom;  // Rendered, for the error message.
  };

  /// One positive atom in plan order.
  struct Step {
    std::size_t relation_id = 0;
    bool use_index = false;
    std::size_t index_id = 0;
    std::vector<Arg> key_args;  // Parallel to the index's sorted positions.
    std::vector<ArgAction> actions;
    std::vector<CmpCheck> comparisons;  // Fully bound after this step.
    std::vector<NegCheck> negations;    // Fully bound after this step.
  };

  /// Coverage probe for one positive atom: its constant and parameter
  /// positions (atoms with neither are omitted).
  struct CoverProbe {
    std::size_t relation_id = 0;
    std::size_t index_id = 0;
    std::vector<Arg> key_args;  // Parallel to the index's sorted positions.
  };

  struct AggState;

  /// Called with each full satisfying assignment (as interned ids) during
  /// enumeration; return true to terminate the whole search.
  using AssignmentSink = std::function<bool(const std::vector<ValueId>&)>;

  /// Everything threaded through the backtracking search besides the
  /// assignment itself. Exactly one of the terminal handlers is active:
  /// none (Boolean existence), agg, sink (answer enumeration), or
  /// support_sink (provenance enumeration).
  struct SearchContext {
    AggState* agg = nullptr;
    const AssignmentSink* sink = nullptr;
    std::vector<SupportEntry>* support = nullptr;
    const std::function<bool(const std::vector<SupportEntry>&)>*
        support_sink = nullptr;
  };

  CompiledQuery() = default;

  /// Assignments bind interned ids; equality checks compare ids directly,
  /// and only ordered comparisons / aggregates resolve through the pool.
  static ValueId ResolveArg(const Arg& arg,
                            const std::vector<ValueId>& assignment) {
    return arg.is_var ? assignment[arg.var] : arg.constant_id;
  }
  static const Value& ResolveArgValue(const Arg& arg,
                                      const std::vector<ValueId>& assignment) {
    return arg.is_var ? ValuePool::Global().value(assignment[arg.var])
                      : arg.constant;
  }

  /// Copies `binding` into the parameter slots of `assignment` and runs the
  /// comparisons that involve no variable; false when either fails.
  bool BindParams(const Tuple& binding,
                  std::vector<ValueId>& assignment) const;

  bool MatchCandidate(const Step& step, TupleId id, const WorldView& view,
                      std::vector<ValueId>& assignment,
                      SearchContext& context) const;

  /// Pre-size hint for distinct/seen sets: the driving step's stored-tuple
  /// count bounds the answer multiplicity in practice (capped so pathological
  /// relations don't over-allocate).
  std::size_t DistinctSetSizeHint() const;
  bool Search(std::size_t step_idx, const WorldView& view,
              std::vector<ValueId>& assignment, SearchContext& context) const;

  const Database* db_ = nullptr;
  DenialConstraint source_;
  QueryAnalysis analysis_;
  std::vector<EqualityConstraint> equalities_;
  std::vector<std::string> variable_names_;
  std::vector<std::size_t> head_var_ids_;
  std::vector<Step> steps_;
  std::vector<CoverProbe> cover_probes_;
  bool always_false_ = false;  // A constant comparison failed at compile time.
  std::size_t num_params_ = 0;  // Slots 0..num_params_-1 of the assignment.
  std::vector<ParamTypeCheck> param_type_checks_;
  std::vector<CmpCheck> binding_checks_;  // Comparisons over params/constants.

  // Aggregate plan.
  bool is_aggregate_ = false;
  AggregateFunction agg_fn_ = AggregateFunction::kCount;
  std::vector<std::size_t> agg_vars_;
  ComparisonOp agg_op_ = ComparisonOp::kGt;
  Arg agg_threshold_;  // The constant or the parameter slot.
  bool agg_early_exit_ = false;
  bool aggregate_arg_non_negative_ = false;
};

}  // namespace bcdb

#endif  // BCDB_QUERY_COMPILED_QUERY_H_
