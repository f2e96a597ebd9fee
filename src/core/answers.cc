#include "core/answers.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/possible_worlds.h"
#include "query/compiled_query.h"

namespace bcdb {

namespace {

Status ValidateAnswerQuery(const DenialConstraint& q) {
  if (q.is_aggregate()) {
    return Status::InvalidArgument(
        "answer enumeration requires a non-aggregate query");
  }
  if (q.head_vars.empty()) {
    return Status::InvalidArgument(
        "answer enumeration requires head variables (q(x, ...) :- ...)");
  }
  return Status::OK();
}

std::vector<Tuple> Sorted(std::set<Tuple> tuples) {
  return std::vector<Tuple>(tuples.begin(), tuples.end());
}

}  // namespace

StatusOr<DenialConstraint> BindHead(const DenialConstraint& q,
                                    const Tuple& binding) {
  if (binding.arity() != q.head_vars.size()) {
    return Status::InvalidArgument("binding arity does not match query head");
  }
  std::map<std::string, Value> substitution;
  for (std::size_t i = 0; i < q.head_vars.size(); ++i) {
    if (!q.head_vars[i].is_variable()) {
      return Status::InvalidArgument("head arguments must be variables");
    }
    substitution[q.head_vars[i].name()] = binding[i];
  }
  auto rewrite = [&](Term& term) {
    if (!term.is_variable()) return;
    auto it = substitution.find(term.name());
    if (it != substitution.end()) term = Term::Const(it->second);
  };

  DenialConstraint bound = q;
  bound.head_vars.clear();
  bound.name = q.name + "_bound";
  for (Atom& atom : bound.positive_atoms) {
    for (Term& term : atom.args) rewrite(term);
  }
  for (Atom& atom : bound.negated_atoms) {
    for (Term& term : atom.args) rewrite(term);
  }
  for (Comparison& cmp : bound.comparisons) {
    rewrite(cmp.lhs);
    rewrite(cmp.rhs);
  }
  return bound;
}

StatusOr<std::vector<Tuple>> CertainAnswers(DcSatEngine& engine,
                                            const DenialConstraint& q,
                                            std::size_t world_limit) {
  BCDB_RETURN_IF_ERROR(ValidateAnswerQuery(q));
  const BlockchainDatabase& db = engine.db();
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(q, &db.database());
  if (!compiled.ok()) return compiled.status();
  BCDB_RETURN_IF_ERROR(compiled->RequireGround());

  if (compiled->analysis().monotone) {
    // R is a possible world and q(R) ⊆ q(W) for every world W, so the
    // intersection over Poss(D) is exactly q(R).
    std::set<Tuple> answers;
    for (Tuple& t : compiled->Answers(db.BaseView())) {
      answers.insert(std::move(t));
    }
    return Sorted(std::move(answers));
  }

  // Non-monotone: intersect over all possible worlds.
  StatusOr<std::vector<WorldView>> worlds =
      EnumeratePossibleWorlds(db, world_limit);
  if (!worlds.ok()) return worlds.status();
  bool first = true;
  std::set<Tuple> certain;
  for (const WorldView& world : *worlds) {
    std::set<Tuple> here;
    for (Tuple& t : compiled->Answers(world)) here.insert(std::move(t));
    if (first) {
      certain = std::move(here);
      first = false;
    } else {
      std::set<Tuple> kept;
      std::set_intersection(certain.begin(), certain.end(), here.begin(),
                            here.end(), std::inserter(kept, kept.begin()));
      certain = std::move(kept);
    }
    if (certain.empty()) break;
  }
  return Sorted(std::move(certain));
}

StatusOr<std::vector<Tuple>> PossibleAnswers(DcSatEngine& engine,
                                             const DenialConstraint& q,
                                             std::size_t world_limit) {
  BCDB_RETURN_IF_ERROR(ValidateAnswerQuery(q));
  const BlockchainDatabase& db = engine.db();
  StatusOr<CompiledQuery> compiled =
      CompiledQuery::Compile(q, &db.database());
  if (!compiled.ok()) return compiled.status();
  BCDB_RETURN_IF_ERROR(compiled->RequireGround());

  if (compiled->analysis().monotone) {
    // Candidates are the answers over the (not necessarily consistent)
    // superset R ∪ T; a candidate is possible iff the head-bound Boolean
    // query can become true in some world — i.e. iff DCSat does NOT
    // certify the bound query as a satisfied denial constraint.
    std::set<Tuple> possible;
    for (const Tuple& candidate : compiled->Answers(db.PendingUnionView())) {
      StatusOr<DenialConstraint> bound = BindHead(q, candidate);
      if (!bound.ok()) return bound.status();
      StatusOr<DcSatResult> result = engine.Check(*bound);
      if (!result.ok()) return result.status();
      if (!result->satisfied) possible.insert(candidate);
    }
    return Sorted(std::move(possible));
  }

  // Non-monotone: union over all possible worlds.
  StatusOr<std::vector<WorldView>> worlds =
      EnumeratePossibleWorlds(db, world_limit);
  if (!worlds.ok()) return worlds.status();
  std::set<Tuple> possible;
  for (const WorldView& world : *worlds) {
    for (Tuple& t : compiled->Answers(world)) possible.insert(std::move(t));
  }
  return Sorted(std::move(possible));
}

}  // namespace bcdb
