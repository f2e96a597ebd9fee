#include "core/answers.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/possible_worlds.h"
#include "query/compiled_query.h"
#include "query/template.h"

namespace bcdb {

namespace {

/// The plan of an answer query: ground, non-aggregate, with a head.
StatusOr<CompiledQuery> CompileAnswerQuery(const DenialConstraint& q,
                                           const Database& db) {
  if (q.is_aggregate()) {
    return Status::InvalidArgument(
        "answer enumeration requires a non-aggregate query");
  }
  if (q.head_vars.empty()) {
    return Status::InvalidArgument(
        "answer enumeration requires head variables (q(x, ...) :- ...)");
  }
  StatusOr<CompiledQuery> compiled = CompiledQuery::Compile(q, &db);
  if (compiled.ok()) BCDB_RETURN_IF_ERROR(compiled->RequireGround());
  return compiled;
}

/// `q` without its head, every body occurrence of a head variable replaced
/// by `replace(i)` for the variable's last head position i.
template <typename Fn>
DenialConstraint ReplaceHeadVariables(const DenialConstraint& q, Fn&& replace) {
  std::map<std::string, std::size_t> position;
  for (std::size_t i = 0; i < q.head_vars.size(); ++i) {
    position[q.head_vars[i].name()] = i;
  }
  DenialConstraint body = q;
  body.head_vars.clear();
  ForEachTerm(body, [&](Term& term) {
    if (!term.is_variable()) return;
    auto it = position.find(term.name());
    if (it != position.end()) term = replace(it->second);
  });
  return body;
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
  for (const Term& head : q.head_vars) {
    if (!head.is_variable()) {
      return Status::InvalidArgument("head arguments must be variables");
    }
  }
  DenialConstraint bound = ReplaceHeadVariables(
      q, [&](std::size_t i) { return Term::Const(binding[i]); });
  bound.name = q.name + "_bound";
  return bound;
}

StatusOr<std::vector<Tuple>> CertainAnswers(DcSatEngine& engine,
                                            const DenialConstraint& q,
                                            std::size_t world_limit) {
  const BlockchainDatabase& db = engine.db();
  StatusOr<CompiledQuery> compiled = CompileAnswerQuery(q, db.database());
  if (!compiled.ok()) return compiled.status();

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
  const BlockchainDatabase& db = engine.db();
  StatusOr<CompiledQuery> compiled = CompileAnswerQuery(q, db.database());
  if (!compiled.ok()) return compiled.status();

  if (compiled->analysis().monotone) {
    // Candidates are the answers over the (not necessarily consistent)
    // superset R ∪ T; a candidate is possible iff the head-bound Boolean
    // query can become true in some world — i.e. iff DCSat does NOT
    // certify the bound query as a satisfied denial constraint. The bound
    // queries are one template, parameter `$i` standing for head position
    // i, compiled once and checked with each candidate as its binding.
    StatusOr<ConstraintTemplate> tmpl =
        ConstraintTemplate::Create(ReplaceHeadVariables(q, [](std::size_t i) {
          return Term::Param(std::to_string(i));
        }));
    if (!tmpl.ok()) return tmpl.status();
    StatusOr<CompiledQuery> plan =
        CompiledQuery::Compile(tmpl->constraint(), &db.database());
    if (!plan.ok()) return plan.status();
    engine.PrepareSteadyState();
    std::set<Tuple> possible;
    std::vector<Value> binding(tmpl->num_params());
    for (const Tuple& candidate : compiled->Answers(db.PendingUnionView())) {
      for (std::size_t p = 0; p < binding.size(); ++p) {
        binding[p] = candidate[std::stoul(tmpl->param_names()[p])];
      }
      StatusOr<DenialConstraint> instance = tmpl->Instantiate(binding);
      if (!instance.ok()) return instance.status();
      StatusOr<DcSatResult> result = engine.CheckPrepared(
          *plan, Tuple(binding), engine.Classify(*plan, *instance));
      if (!result.ok()) return result.status();
      if (!result->decided) {
        return Status::OutOfRange("possible-answer check stopped undecided");
      }
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
