#include "query/compiled_query.h"

#include <algorithm>
#include <map>

#include "query/validate.h"
#include "util/flat_table.h"

namespace bcdb {

namespace {

/// Maps variable names to dense ids, in order of first appearance.
class VariableTable {
 public:
  std::size_t Intern(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const std::size_t id = names_.size();
    ids_.emplace(name, id);
    names_.push_back(name);
    return id;
  }

  /// Requires a name Intern has seen; ValidateQuery's safety check
  /// guarantees that for every term Compile resolves.
  std::size_t Lookup(const std::string& name) const { return ids_.at(name); }

  std::vector<std::string> names() const { return names_; }
  std::size_t size() const { return names_.size(); }

 private:
  std::map<std::string, std::size_t> ids_;
  std::vector<std::string> names_;
};

}  // namespace

StatusOr<CompiledQuery> CompiledQuery::Compile(const DenialConstraint& q,
                                               const Database* db) {
  const Catalog& catalog = db->catalog();
  const std::vector<QueryDefect> defects = ValidateQuery(q, catalog);
  if (!defects.empty()) {
    const QueryDefect& first = defects.front();
    return first.kind == DefectKind::kUnknownRelation
               ? Status::NotFound(first.message)
               : Status::InvalidArgument(first.message);
  }
  CompiledQuery result;
  result.db_ = db;
  result.source_ = q;

  // --- Parameter slots first, in ConstraintTemplate's parameter order. ---
  VariableTable vars;
  auto intern_param = [&](const Term& term) {
    if (term.is_param()) vars.Intern("$" + term.name());
  };
  for (const std::vector<Atom>* atoms : {&q.positive_atoms, &q.negated_atoms}) {
    for (const Atom& atom : *atoms) {
      for (const Term& term : atom.args) intern_param(term);
    }
  }
  for (const Comparison& cmp : q.comparisons) {
    intern_param(cmp.lhs);
    intern_param(cmp.rhs);
  }
  // ValidateQuery rejects a parameter among the aggregate's arguments.
  if (q.aggregate.has_value()) intern_param(q.aggregate->threshold);
  result.num_params_ = vars.size();

  // --- Intern variables (positive atoms define them). ---
  // A parameter's type is checked per binding (ValidateBinding), so each
  // atom site of one is recorded here.
  auto record_param_sites = [&](const Atom& atom, std::size_t rel_id) {
    for (std::size_t i = 0; i < atom.args.size(); ++i) {
      if (!atom.args[i].is_param()) continue;
      result.param_type_checks_.push_back(ParamTypeCheck{
          vars.Lookup("$" + atom.args[i].name()), rel_id, i,
          atom.ToString()});
    }
  };
  std::vector<std::size_t> atom_relation_ids(q.positive_atoms.size());
  for (std::size_t a = 0; a < q.positive_atoms.size(); ++a) {
    const Atom& atom = q.positive_atoms[a];
    atom_relation_ids[a] = *catalog.RelationId(atom.relation);
    record_param_sites(atom, atom_relation_ids[a]);
    for (const Term& term : atom.args) {
      if (term.is_variable()) vars.Intern(term.name());
    }
  }

  // Variables and parameters resolve to slots; constants are interned.
  auto slot_of = [&](const Term& term) {
    return vars.Lookup(term.is_param() ? "$" + term.name() : term.name());
  };
  auto resolve_term = [&](const Term& term) {
    Arg arg;
    if (!term.is_constant()) {
      arg.is_var = true;
      arg.var = slot_of(term);
    } else {
      arg.constant = term.value();
      arg.constant_id = ValuePool::Global().Intern(term.value());
    }
    return arg;
  };

  // --- Compile negated atoms and comparisons. ---
  struct PendingNeg {
    NegCheck check;
    std::vector<std::size_t> vars;
  };
  std::vector<PendingNeg> pending_negs;
  for (const Atom& atom : q.negated_atoms) {
    PendingNeg pending;
    pending.check.relation_id = *catalog.RelationId(atom.relation);
    record_param_sites(atom, pending.check.relation_id);
    for (const Term& term : atom.args) {
      Arg arg = resolve_term(term);
      if (arg.is_var) pending.vars.push_back(arg.var);
      pending.check.args.push_back(std::move(arg));
    }
    pending_negs.push_back(std::move(pending));
  }

  struct PendingCmp {
    CmpCheck check;
    std::vector<std::size_t> vars;
  };
  std::vector<PendingCmp> pending_cmps;
  for (const Comparison& cmp : q.comparisons) {
    CmpCheck check{resolve_term(cmp.lhs), cmp.op, resolve_term(cmp.rhs)};
    if (cmp.lhs.is_constant() && cmp.rhs.is_constant()) {
      // Constant comparison: fold at compile time.
      if (!EvaluateComparison(check.lhs.constant, cmp.op,
                              check.rhs.constant)) {
        result.always_false_ = true;
      }
      continue;
    }
    if (!cmp.lhs.is_variable() && !cmp.rhs.is_variable()) {
      // Parameters and constants only: folded once the binding is known,
      // by the same value comparison the constant fold uses.
      result.binding_checks_.push_back(std::move(check));
      continue;
    }
    PendingCmp pending;
    pending.check = std::move(check);
    if (pending.check.lhs.is_var) pending.vars.push_back(pending.check.lhs.var);
    if (pending.check.rhs.is_var) pending.vars.push_back(pending.check.rhs.var);
    pending_cmps.push_back(std::move(pending));
  }

  // --- Compile the head (answer-producing queries). ---
  for (const Term& term : q.head_vars) {
    result.head_var_ids_.push_back(slot_of(term));
  }

  // --- Compile the aggregate head. ---
  if (q.aggregate.has_value()) {
    const AggregateSpec& spec = *q.aggregate;
    result.is_aggregate_ = true;
    result.agg_fn_ = spec.fn;
    result.agg_op_ = spec.op;
    result.agg_threshold_ = resolve_term(spec.threshold);
    for (const Term& term : spec.args) {
      result.agg_vars_.push_back(slot_of(term));
    }
    const bool value_agg = spec.fn == AggregateFunction::kSum ||
                           spec.fn == AggregateFunction::kMax ||
                           spec.fn == AggregateFunction::kMin;
    if (value_agg) {
      // The aggregated variable is non-negative if any positive-atom
      // occurrence is at a non-negative attribute (equal values, so one
      // witness position suffices).
      for (std::size_t a = 0; a < q.positive_atoms.size(); ++a) {
        const RelationSchema& schema = catalog.schema(atom_relation_ids[a]);
        const Atom& atom = q.positive_atoms[a];
        for (std::size_t i = 0; i < atom.args.size(); ++i) {
          if (atom.args[i].is_variable() &&
              atom.args[i].name() == spec.args[0].name() &&
              schema.attribute(i).non_negative) {
            result.aggregate_arg_non_negative_ = true;
          }
        }
      }
    }
    // Early exit is sound when the partial aggregate can only move toward
    // the threshold: growing aggregates with >,>= and min with <,<=.
    const bool grows =
        spec.fn == AggregateFunction::kCount ||
        spec.fn == AggregateFunction::kCountDistinct ||
        spec.fn == AggregateFunction::kMax ||
        (spec.fn == AggregateFunction::kSum &&
         result.aggregate_arg_non_negative_);
    const bool shrinks = spec.fn == AggregateFunction::kMin;
    result.agg_early_exit_ =
        (grows && (spec.op == ComparisonOp::kGt || spec.op == ComparisonOp::kGe)) ||
        (shrinks && (spec.op == ComparisonOp::kLt || spec.op == ComparisonOp::kLe));
  }

  // --- Greedy bound-first join order over the positive atoms. ---
  // Parameter slots are bound before the first step, like constants.
  result.variable_names_ = vars.names();
  std::vector<bool> var_bound(result.variable_names_.size(), false);
  std::fill(var_bound.begin(), var_bound.begin() + result.num_params_, true);
  std::vector<bool> atom_planned(q.positive_atoms.size(), false);
  std::vector<bool> cmp_attached(pending_cmps.size(), false);
  std::vector<bool> neg_attached(pending_negs.size(), false);

  for (std::size_t round = 0; round < q.positive_atoms.size(); ++round) {
    // Pick the unplanned atom with the most bound positions.
    std::size_t best = q.positive_atoms.size();
    std::size_t best_score = 0;
    for (std::size_t a = 0; a < q.positive_atoms.size(); ++a) {
      if (atom_planned[a]) continue;
      std::size_t score = 0;
      for (const Term& term : q.positive_atoms[a].args) {
        if (term.is_constant() || var_bound[slot_of(term)]) ++score;
      }
      if (best == q.positive_atoms.size() || score > best_score) {
        best = a;
        best_score = score;
      }
    }
    atom_planned[best] = true;

    const Atom& atom = q.positive_atoms[best];
    Step step;
    step.relation_id = atom_relation_ids[best];

    std::vector<std::size_t> bound_positions;
    for (std::size_t i = 0; i < atom.args.size(); ++i) {
      const Term& term = atom.args[i];
      if (term.is_constant() || var_bound[slot_of(term)]) {
        bound_positions.push_back(i);
      }
    }
    // bound_positions is sorted by construction (ascending i).
    step.use_index = !bound_positions.empty();
    if (step.use_index) {
      step.index_id =
          db->relation(step.relation_id).GetOrBuildIndex(bound_positions);
      for (std::size_t pos : bound_positions) {
        step.key_args.push_back(resolve_term(atom.args[pos]));
      }
    }

    // Actions for the positions not covered by the index key. A variable's
    // first unbound occurrence binds it; later occurrences (still within
    // this atom) compare against the fresh binding.
    std::size_t next_bound = 0;
    for (std::size_t i = 0; i < atom.args.size(); ++i) {
      const bool in_key = step.use_index &&
                          next_bound < bound_positions.size() &&
                          bound_positions[next_bound] == i;
      if (in_key) {
        ++next_bound;
        continue;
      }
      const Term& term = atom.args[i];
      ArgAction action;
      action.position = i;
      if (term.is_constant()) {
        action.kind = ArgAction::kCheckConst;
        action.constant_id = ValuePool::Global().Intern(term.value());
      } else {
        const std::size_t id = slot_of(term);
        if (var_bound[id]) {
          action.kind = ArgAction::kCheckVar;
          action.var = id;
        } else {
          action.kind = ArgAction::kBind;
          action.var = id;
          var_bound[id] = true;
        }
      }
      step.actions.push_back(std::move(action));
    }

    // Attach comparisons and negations that just became fully bound.
    for (std::size_t c = 0; c < pending_cmps.size(); ++c) {
      if (cmp_attached[c]) continue;
      const bool ready = std::all_of(
          pending_cmps[c].vars.begin(), pending_cmps[c].vars.end(),
          [&](std::size_t v) { return var_bound[v]; });
      if (ready) {
        step.comparisons.push_back(pending_cmps[c].check);
        cmp_attached[c] = true;
      }
    }
    for (std::size_t n = 0; n < pending_negs.size(); ++n) {
      if (neg_attached[n]) continue;
      const bool ready = std::all_of(
          pending_negs[n].vars.begin(), pending_negs[n].vars.end(),
          [&](std::size_t v) { return var_bound[v]; });
      if (ready) {
        step.negations.push_back(pending_negs[n].check);
        neg_attached[n] = true;
      }
    }

    result.steps_.push_back(std::move(step));
  }

  // --- Constant-coverage probes (for OptDCSat's Covers test). ---
  // A parameter position is probed with the binding's value, so the index
  // covers constant and parameter positions alike.
  for (std::size_t a = 0; a < q.positive_atoms.size(); ++a) {
    const Atom& atom = q.positive_atoms[a];
    std::vector<std::size_t> positions;
    CoverProbe probe;
    for (std::size_t i = 0; i < atom.args.size(); ++i) {
      if (!atom.args[i].is_variable()) {
        positions.push_back(i);
        probe.key_args.push_back(resolve_term(atom.args[i]));
      }
    }
    if (positions.empty()) continue;
    probe.relation_id = atom_relation_ids[a];
    probe.index_id = db->relation(probe.relation_id).GetOrBuildIndex(positions);
    result.cover_probes_.push_back(std::move(probe));
  }

  // Structural derivations the DCSat engine needs on every check, hoisted
  // to compile time (both depend only on the query and the catalog).
  // EqualitiesFromQuery fails only on an unknown relation, which
  // ValidateQuery has ruled out.
  result.analysis_ = AnalyzeQuery(q, catalog);
  result.equalities_ = *EqualitiesFromQuery(q, catalog);

  return result;
}

/// Streaming aggregate accumulator over the satisfying-assignment bag.
struct CompiledQuery::AggState {
  const CompiledQuery* query;
  const Value* threshold;  // The constant or the bound parameter.
  std::int64_t count = 0;
  FlatIdSet<Tuple, TupleHash, TupleEq> distinct;
  bool sum_is_int = true;
  std::int64_t sum_int = 0;
  double sum_real = 0;
  std::optional<Value> best;  // max/min

  /// Folds one assignment (of interned ids) in; returns true if the
  /// early-exit condition already guarantees the aggregate comparison holds.
  bool Accumulate(const std::vector<ValueId>& assignment) {
    switch (query->agg_fn_) {
      case AggregateFunction::kCount:
        ++count;
        break;
      case AggregateFunction::kCountDistinct: {
        // Distinctness over ids is exact: interning canonicalizes, so two
        // projections are Compare-equal iff their id sequences match.
        ProjectionKey projected(query->agg_vars_.size());
        for (std::size_t i = 0; i < query->agg_vars_.size(); ++i) {
          projected.set(i, assignment[query->agg_vars_[i]]);
        }
        distinct.insert(Tuple::FromIds(projected));
        break;
      }
      case AggregateFunction::kSum: {
        const Value& v =
            ValuePool::Global().value(assignment[query->agg_vars_[0]]);
        std::int64_t next = 0;
        if (sum_is_int && v.type() == ValueType::kInt &&
            !__builtin_add_overflow(sum_int, v.AsInt(), &next)) {
          sum_int = next;
        } else {
          // A Real operand or int64 overflow: continue in floating point
          // (a wrapped sum could flip the comparison's verdict).
          if (sum_is_int) {
            sum_real = static_cast<double>(sum_int);
            sum_is_int = false;
          }
          sum_real += v.AsNumeric();
        }
        ++count;
        break;
      }
      case AggregateFunction::kMax: {
        const Value& v =
            ValuePool::Global().value(assignment[query->agg_vars_[0]]);
        if (!best.has_value() || v > *best) best = v;
        ++count;
        break;
      }
      case AggregateFunction::kMin: {
        const Value& v =
            ValuePool::Global().value(assignment[query->agg_vars_[0]]);
        if (!best.has_value() || v < *best) best = v;
        ++count;
        break;
      }
    }
    return query->agg_early_exit_ && !Empty() &&
           EvaluateComparison(Current(), query->agg_op_, *threshold);
  }

  bool Empty() const {
    switch (query->agg_fn_) {
      case AggregateFunction::kCount:
        return count == 0;
      case AggregateFunction::kCountDistinct:
        return distinct.empty();
      default:
        return count == 0;
    }
  }

  Value Current() const {
    switch (query->agg_fn_) {
      case AggregateFunction::kCount:
        return Value::Int(count);
      case AggregateFunction::kCountDistinct:
        return Value::Int(static_cast<std::int64_t>(distinct.size()));
      case AggregateFunction::kSum:
        return sum_is_int ? Value::Int(sum_int) : Value::Real(sum_real);
      case AggregateFunction::kMax:
      case AggregateFunction::kMin:
        return *best;
    }
    return Value::Null();
  }

  /// Final truth value: the empty bag evaluates to false (paper Section 5).
  bool Finalize() const {
    if (Empty()) return false;
    return EvaluateComparison(Current(), query->agg_op_, *threshold);
  }
};

bool CompiledQuery::MatchCandidate(const Step& step, TupleId id,
                                   const WorldView& view,
                                   std::vector<ValueId>& assignment,
                                   SearchContext& context) const {
  const Relation& rel = db_->relation(step.relation_id);
  if (!rel.IsVisible(id, view)) return false;
  const Tuple& t = rel.tuple(id);
  const ValueId* ids = t.ids();
  for (const ArgAction& action : step.actions) {
    const ValueId v = ids[action.position];
    switch (action.kind) {
      case ArgAction::kCheckConst:
        if (v != action.constant_id) return false;
        break;
      case ArgAction::kCheckVar:
        if (v != assignment[action.var]) return false;
        break;
      case ArgAction::kBind:
        assignment[action.var] = v;
        break;
    }
  }
  for (const CmpCheck& cmp : step.comparisons) {
    // Equality/inequality is decided on ids; ordered operators resolve
    // through the pool (they need Value::Compare's numeric semantics).
    if (cmp.op == ComparisonOp::kEq || cmp.op == ComparisonOp::kNe) {
      const bool equal = ResolveArg(cmp.lhs, assignment) ==
                         ResolveArg(cmp.rhs, assignment);
      if (equal != (cmp.op == ComparisonOp::kEq)) return false;
    } else if (!EvaluateComparison(ResolveArgValue(cmp.lhs, assignment),
                                   cmp.op,
                                   ResolveArgValue(cmp.rhs, assignment))) {
      return false;
    }
  }
  for (const NegCheck& neg : step.negations) {
    ProjectionKey ground(neg.args.size());
    for (std::size_t i = 0; i < neg.args.size(); ++i) {
      ground.set(i, ResolveArg(neg.args[i], assignment));
    }
    if (db_->relation(neg.relation_id).ContainsVisible(ground, view)) {
      return false;
    }
  }
  // Find the step index to continue from: steps are contiguous, so locate
  // this step and recurse to the next.
  const std::size_t step_idx = static_cast<std::size_t>(&step - steps_.data());
  if (context.support != nullptr) {
    context.support->push_back(SupportEntry{step.relation_id, id});
    const bool stop = Search(step_idx + 1, view, assignment, context);
    context.support->pop_back();
    return stop;
  }
  return Search(step_idx + 1, view, assignment, context);
}

bool CompiledQuery::Search(std::size_t step_idx, const WorldView& view,
                           std::vector<ValueId>& assignment,
                           SearchContext& context) const {
  if (step_idx == steps_.size()) {
    if (context.support_sink != nullptr) {
      return !(*context.support_sink)(*context.support);
    }
    if (context.sink != nullptr) return (*context.sink)(assignment);
    if (context.agg == nullptr) {
      return true;  // One satisfying assignment suffices.
    }
    return context.agg->Accumulate(assignment);
  }
  const Step& step = steps_[step_idx];
  const Relation& rel = db_->relation(step.relation_id);
  if (step.use_index) {
    ProjectionKey key(step.key_args.size());
    for (std::size_t i = 0; i < step.key_args.size(); ++i) {
      key.set(i, ResolveArg(step.key_args[i], assignment));
    }
    for (TupleId id : rel.IndexLookup(step.index_id, key)) {
      if (MatchCandidate(step, id, view, assignment, context)) return true;
    }
  } else {
    const std::size_t n = rel.num_tuples();
    for (TupleId id = 0; id < n; ++id) {
      if (MatchCandidate(step, id, view, assignment, context)) return true;
    }
  }
  return false;
}

std::size_t CompiledQuery::driving_tuples() const {
  return steps_.empty() ? 0
                        : db_->relation(steps_[0].relation_id).num_tuples();
}

std::size_t CompiledQuery::DistinctSetSizeHint() const {
  return std::min<std::size_t>(driving_tuples(), 4096);
}

Status CompiledQuery::RequireGround() const {
  if (num_params_ == 0) return Status::OK();
  return Status::InvalidArgument(
      "unbound parameter '" + variable_names_[0] + "' in query '" +
      source_.name + "'; bind it through a ConstraintTemplate first");
}

Status CompiledQuery::ValidateBinding(const Tuple& binding) const {
  if (binding.arity() != num_params_) {
    return Status::InvalidArgument(
        "binding has " + std::to_string(binding.arity()) +
        " values but the query has " + std::to_string(num_params_) +
        " parameters");
  }
  for (const ParamTypeCheck& check : param_type_checks_) {
    const RelationSchema& schema = db_->catalog().schema(check.relation_id);
    const Value& v = binding.at(check.slot);
    if (!FitsAttribute(v, schema, check.position)) {
      return Status::InvalidArgument(
          "binding value " + v.ToString() + " for parameter '" +
          variable_names_[check.slot] + "' has wrong type (expected " +
          ValueTypeToString(schema.attribute(check.position).type) +
          " at position " + std::to_string(check.position) + " of atom " +
          check.atom + ")");
    }
  }
  return Status::OK();
}

bool CompiledQuery::BindParams(const Tuple& binding,
                               std::vector<ValueId>& assignment) const {
  if (binding.arity() != num_params_) return false;
  std::copy(binding.ids(), binding.ids() + num_params_, assignment.begin());
  for (const CmpCheck& cmp : binding_checks_) {
    if (!EvaluateComparison(ResolveArgValue(cmp.lhs, assignment), cmp.op,
                            ResolveArgValue(cmp.rhs, assignment))) {
      return false;
    }
  }
  return true;
}

bool CompiledQuery::Evaluate(const WorldView& view,
                             const Tuple& binding) const {
  if (always_false_) return false;
  std::vector<ValueId> assignment(num_variables(), kNullValueId);
  if (!BindParams(binding, assignment)) return false;
  SearchContext context;
  if (!is_aggregate_) {
    return Search(0, view, assignment, context);
  }
  AggState agg;
  agg.query = this;
  agg.threshold = &ResolveArgValue(agg_threshold_, assignment);
  if (agg_fn_ == AggregateFunction::kCountDistinct) {
    agg.distinct.reserve(DistinctSetSizeHint());
  }
  context.agg = &agg;
  if (Search(0, view, assignment, context)) {
    return true;  // Early exit fired.
  }
  return agg.Finalize();
}

void CompiledQuery::EnumerateSupports(
    const WorldView& view, const Tuple& binding,
    const std::function<bool(const std::vector<SupportEntry>&)>& callback)
    const {
  if (always_false_ || is_aggregate_) return;
  std::vector<ValueId> assignment(num_variables(), kNullValueId);
  if (!BindParams(binding, assignment)) return;
  std::vector<SupportEntry> support;
  support.reserve(steps_.size());
  SearchContext context;
  context.support = &support;
  context.support_sink = &callback;
  (void)Search(0, view, assignment, context);
}

void CompiledQuery::EnumerateAnswers(
    const WorldView& view,
    const std::function<bool(const Tuple&)>& callback) const {
  if (always_false_ || is_aggregate_ || num_params_ > 0) return;
  std::vector<ValueId> assignment(num_variables(), kNullValueId);
  FlatIdSet<Tuple, TupleHash, TupleEq> seen;
  seen.reserve(DistinctSetSizeHint());
  SearchContext context;
  const AssignmentSink sink = [&](const std::vector<ValueId>& full) -> bool {
    ProjectionKey head(head_var_ids_.size());
    for (std::size_t i = 0; i < head_var_ids_.size(); ++i) {
      head.set(i, full[head_var_ids_[i]]);
    }
    Tuple answer = Tuple::FromIds(head);
    if (!seen.insert(answer).second) return false;  // Duplicate: keep going.
    return !callback(answer);  // Stop the search if the callback says so.
  };
  context.sink = &sink;
  (void)Search(0, view, assignment, context);
}

std::vector<Tuple> CompiledQuery::Answers(const WorldView& view) const {
  std::vector<Tuple> answers;
  EnumerateAnswers(view, [&](const Tuple& t) {
    answers.push_back(t);
    return true;
  });
  return answers;
}

std::string CompiledQuery::ExplainPlan() const {
  std::string out = "plan for " + source_.name + " (" +
                    std::to_string(steps_.size()) + " steps";
  if (always_false_) out += ", constantly false";
  out += ")\n";
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    const RelationSchema& schema = db_->catalog().schema(step.relation_id);
    out += "  " + std::to_string(i + 1) + ". " + schema.name();
    if (step.use_index) {
      out += " via index(";
      // Key args are parallel to the index's sorted positions; recover the
      // attribute names through the schema for readability.
      std::string keys;
      std::size_t shown = 0;
      for (std::size_t pos = 0; pos < schema.arity() && shown <
           step.key_args.size(); ++pos) {
        // Positions are implicit; reconstruct by counting non-action slots.
        bool is_action = false;
        for (const ArgAction& action : step.actions) {
          if (action.position == pos) is_action = true;
        }
        if (is_action) continue;
        if (!keys.empty()) keys += ", ";
        keys += schema.attribute(pos).name;
        const Arg& arg = step.key_args[shown++];
        keys += arg.is_var ? std::string("=?") + variable_names_[arg.var]
                           : "=" + arg.constant.ToString();
      }
      out += keys + ")";
    } else {
      out += " via full scan";
    }
    std::size_t binds = 0, checks = 0;
    for (const ArgAction& action : step.actions) {
      (action.kind == ArgAction::kBind ? binds : checks) += 1;
    }
    if (binds > 0) out += ", binds " + std::to_string(binds);
    if (checks > 0) out += ", checks " + std::to_string(checks);
    if (!step.comparisons.empty()) {
      out += ", " + std::to_string(step.comparisons.size()) + " comparison(s)";
    }
    if (!step.negations.empty()) {
      out += ", " + std::to_string(step.negations.size()) + " negation(s)";
    }
    out += "\n";
  }
  if (is_aggregate_) {
    out += "  => " +
           std::string(AggregateFunctionToString(agg_fn_)) + " " +
           ComparisonOpToString(agg_op_) + " " +
           (agg_threshold_.is_var ? variable_names_[agg_threshold_.var]
                                  : agg_threshold_.constant.ToString()) +
           (agg_early_exit_ ? " (early exit)" : "") + "\n";
  }
  return out;
}

bool CompiledQuery::CoversConstants(const WorldView& view,
                                    const Tuple& binding) const {
  if (binding.arity() != num_params_) return false;
  for (const CoverProbe& probe : cover_probes_) {
    const Relation& rel = db_->relation(probe.relation_id);
    ProjectionKey key(probe.key_args.size());
    for (std::size_t i = 0; i < probe.key_args.size(); ++i) {
      const Arg& arg = probe.key_args[i];
      key.set(i, arg.is_var ? binding.ids()[arg.var] : arg.constant_id);
    }
    bool covered = false;
    for (TupleId id : rel.IndexLookup(probe.index_id, key)) {
      if (rel.IsVisible(id, view)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

}  // namespace bcdb
