#include "workload/constraints.h"

#include <cassert>
#include <optional>

#include "bitcoin/to_relational.h"

namespace bcdb {
namespace workload {

namespace {

using bitcoin::kTxIn;
using bitcoin::kTxOut;

Term V(const std::string& name) { return Term::Var(name); }
Term C(const std::string& value) { return Term::Const(Value::Str(value)); }

std::string Num(std::size_t i) { return std::to_string(i); }

}  // namespace

DenialConstraint MakeSimpleConstraint(const std::string& x) {
  DenialConstraint q;
  q.name = "qs";
  q.positive_atoms.push_back(Atom{kTxOut, {V("ntx"), V("s"), C(x), V("a")}});
  return q;
}

DenialConstraint MakePathConstraint(std::size_t i, const std::string& x,
                                    const std::string& y) {
  assert(i >= 2);
  DenialConstraint q;
  q.name = "qp" + Num(i);
  const std::size_t hops = i - 1;
  for (std::size_t j = 1; j <= hops; ++j) {
    // Hop j: an output of transaction t_j (owned by X for j = 1) is spent
    // by transaction t_{j+1}; the spender's pk is Y on the final hop.
    Term out_pk = j == 1 ? C(x) : V("p" + Num(j));
    Term in_pk = j == hops ? C(y) : V("q" + Num(j));
    q.positive_atoms.push_back(Atom{
        kTxOut, {V("t" + Num(j)), V("s" + Num(j)), out_pk, V("a" + Num(j))}});
    q.positive_atoms.push_back(
        Atom{kTxIn,
             {V("t" + Num(j)), V("s" + Num(j)), in_pk, V("a" + Num(j)),
              V("t" + Num(j + 1)), V("g" + Num(j))}});
  }
  return q;
}

DenialConstraint MakeStarConstraint(std::size_t i, const std::string& x) {
  assert(i >= 1);
  DenialConstraint q;
  q.name = "qr" + Num(i);
  for (std::size_t k = 1; k <= i; ++k) {
    q.positive_atoms.push_back(
        Atom{kTxIn,
             {V("pn" + Num(k)), V("s" + Num(k)), C(x), V("a" + Num(k)),
              V("n" + Num(k)), V("g" + Num(k))}});
    q.positive_atoms.push_back(Atom{
        kTxOut, {V("n" + Num(k)), V("s" + Num(k)), V("p" + Num(k)),
                 V("b" + Num(k))}});
  }
  for (std::size_t j = 1; j <= i; ++j) {
    for (std::size_t k = j + 1; k <= i; ++k) {
      q.comparisons.push_back(
          Comparison{V("n" + Num(j)), ComparisonOp::kNe, V("n" + Num(k))});
    }
  }
  return q;
}

DenialConstraint MakeAggregateConstraint(const std::string& x,
                                         bitcoin::Satoshi n) {
  DenialConstraint q;
  q.name = "qa";
  q.positive_atoms.push_back(Atom{kTxOut, {V("ntx"), V("s"), C(x), V("a")}});
  q.aggregate = AggregateSpec{AggregateFunction::kSum,
                              {V("a")},
                              ComparisonOp::kGe,
                              Value::Int(n),
                              std::nullopt};
  return q;
}

DenialConstraint MakeDistinctTransfersConstraint(const std::string& x,
                                                 const std::string& y,
                                                 std::int64_t n) {
  DenialConstraint q;
  q.name = "q4";
  q.positive_atoms.push_back(
      Atom{kTxIn, {V("pt"), V("ps"), C(x), V("a"), V("ntx"), V("sig")}});
  q.positive_atoms.push_back(Atom{kTxOut, {V("ntx"), V("s"), C(y), V("b")}});
  q.aggregate = AggregateSpec{AggregateFunction::kCountDistinct,
                              {V("ntx")},
                              ComparisonOp::kGe,
                              Value::Int(n),
                              std::nullopt};
  return q;
}

DenialConstraint SimpleUnsat(const bitcoin::WorkloadMetadata& meta) {
  // chain_pks[1] receives bitcoins only inside the pending chain.
  return MakeSimpleConstraint(meta.chain_pks.at(1));
}

DenialConstraint SimpleSat(const bitcoin::WorkloadMetadata& meta) {
  return MakeSimpleConstraint(meta.absent_pk);
}

DenialConstraint PathUnsat(const bitcoin::WorkloadMetadata& meta,
                           std::size_t i) {
  // The designated pending chain realizes the path: X funds it on-chain,
  // and the (i-1)-th hop spends the output owned by chain_pks[i-2].
  return MakePathConstraint(i, meta.chain_pks.at(0), meta.chain_pks.at(i - 2));
}

DenialConstraint PathSat(const bitcoin::WorkloadMetadata& meta,
                         std::size_t i) {
  // quiet_pk holds a confirmed output that nothing (confirmed or pending)
  // ever spends, so no path of any length starts there.
  return MakePathConstraint(i, meta.quiet_pk, meta.quiet_pk2);
}

DenialConstraint StarUnsat(const bitcoin::WorkloadMetadata& meta,
                           std::size_t i) {
  return MakeStarConstraint(i, meta.star_pk);
}

DenialConstraint StarSat(const bitcoin::WorkloadMetadata& meta,
                         std::size_t i) {
  return MakeStarConstraint(i, meta.quiet_pk);
}

DenialConstraint AggregateUnsat(const bitcoin::WorkloadMetadata& meta) {
  // Reachable: rich_pk's confirmed total plus half of its pending inflow.
  return MakeAggregateConstraint(
      meta.rich_pk, meta.rich_base_total + meta.rich_pending_total / 2);
}

DenialConstraint AggregateSat(const bitcoin::WorkloadMetadata& meta) {
  // One satoshi more than everything rich_pk could ever collect.
  return MakeAggregateConstraint(
      meta.rich_pk, meta.rich_base_total + meta.rich_pending_total + 1);
}

}  // namespace workload
}  // namespace bcdb
