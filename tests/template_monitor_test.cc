#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/monitor.h"
#include "grounded_reference.h"
#include "query/compiled_query.h"
#include "query/parser.h"
#include "query/template.h"
#include "running_example.h"

namespace bcdb {
namespace {

using testing_fixtures::GroundedVerdict;
using testing_fixtures::MakeRunningExample;
using Verdict = ConstraintMonitor::Verdict;

DenialConstraint Q(const std::string& text) {
  auto q = ParseDenialConstraint(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

ConstraintTemplate T(const std::string& text) {
  auto tmpl = ConstraintTemplate::Parse(text);
  EXPECT_TRUE(tmpl.ok()) << tmpl.status();
  return *tmpl;
}

// --- Template type ------------------------------------------------------

TEST(ConstraintTemplateTest, ParseCollectsParams) {
  ConstraintTemplate tmpl = T("q() :- TxOut(t, s, $pk, a), a > $floor");
  ASSERT_EQ(tmpl.num_params(), 2u);
  EXPECT_EQ(tmpl.param_names()[0], "pk");
  EXPECT_EQ(tmpl.param_names()[1], "floor");
  // $floor never occurs in a positive atom, so the class cannot be
  // projected into head variables.
  EXPECT_FALSE(tmpl.projectable());
  EXPECT_TRUE(T("q() :- TxOut(t, s, $pk, a)").projectable());
  // Params render back with the sigil.
  EXPECT_NE(tmpl.constraint().ToString().find("$pk"), std::string::npos);
}

TEST(ConstraintTemplateTest, AggregateThresholdParam) {
  ConstraintTemplate tmpl = T("[q(count()) :- TxOut(t, s, p, a)] > $n");
  ASSERT_EQ(tmpl.num_params(), 1u);
  EXPECT_EQ(tmpl.param_names()[0], "n");
  EXPECT_FALSE(tmpl.projectable());  // Aggregates are never batched.
  auto grounded = tmpl.Instantiate({Value::Int(7)});
  ASSERT_TRUE(grounded.ok());
  EXPECT_EQ(grounded->ToString(), Q("[q(count()) :- TxOut(t, s, p, a)] > 7")
                                      .ToString());
}

TEST(ConstraintTemplateTest, InstantiateRoundTrip) {
  ConstraintTemplate tmpl = T("q() :- TxOut(t, s, $pk, a)");
  auto grounded = tmpl.Instantiate({Value::Str("U8Pk")});
  ASSERT_TRUE(grounded.ok());
  EXPECT_EQ(grounded->ToString(),
            Q("q() :- TxOut(t, s, 'U8Pk', a)").ToString());
  // Arity mismatch is typed, not UB.
  EXPECT_FALSE(tmpl.Instantiate({}).ok());
  EXPECT_FALSE(
      tmpl.Instantiate({Value::Str("a"), Value::Str("b")}).ok());
}

TEST(ConstraintTemplateTest, CanonicalizeExtractsConstants) {
  auto canon = ConstraintTemplate::Canonicalize(
      Q("q() :- TxOut(t, s, 'U8Pk', a)"));
  ASSERT_TRUE(canon.ok());
  ASSERT_EQ(canon->binding.size(), 1u);
  EXPECT_EQ(canon->binding[0], Value::Str("U8Pk"));
  // The canonical template is α-renamed and holds no constant...
  EXPECT_EQ(canon->tmpl.constraint().ToString(),
            "q() :- TxOut(v0, v1, $p0, v2)");
  // ...so it is the same regardless of the constant...
  auto other = ConstraintTemplate::Canonicalize(
      Q("q() :- TxOut(t, s, 'U9Pk', a)"));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(canon->tmpl.constraint() == other->tmpl.constraint());
  // ...and of variable and query naming.
  auto renamed = ConstraintTemplate::Canonicalize(
      Q("watch(  ) :- TxOut(w, x, 'U8Pk', z)"));
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(canon->tmpl.constraint() == renamed->tmpl.constraint());
}

TEST(ConstraintTemplateTest, EqualConstantsCoupleIntoOneParam) {
  // TxOut(1, 1, ...) couples both positions through one parameter; breaking
  // the coupling changes the class.
  auto coupled =
      ConstraintTemplate::Canonicalize(Q("q() :- TxOut(1, 1, p, a)"));
  auto uncoupled =
      ConstraintTemplate::Canonicalize(Q("q() :- TxOut(1, 2, p, a)"));
  ASSERT_TRUE(coupled.ok());
  ASSERT_TRUE(uncoupled.ok());
  EXPECT_EQ(coupled->binding.size(), 1u);
  EXPECT_EQ(uncoupled->binding.size(), 2u);
  EXPECT_FALSE(coupled->tmpl.constraint() == uncoupled->tmpl.constraint());
}

// --- Registration API ---------------------------------------------------

TEST(TemplateMonitorTest, AddRejectsUnboundParams) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto added = monitor.Add("raw", "q() :- TxOut(t, s, $pk, a)");
  ASSERT_FALSE(added.ok());
  EXPECT_NE(added.status().message().find("unbound parameter"),
            std::string::npos);
}

TEST(TemplateMonitorTest, RejectedAddQuotesTheCallersConstraint) {
  // The diagnostics name the canonical variables v<i>; the message also
  // quotes the constraint as given, so the caller's own names appear.
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto added = monitor.Add(
      "orphan", "q() :- TxOut(t, s, 'U8Pk', a), not TxOut(zed, s, p, a)");
  ASSERT_FALSE(added.ok());
  const std::string message(added.status().message());
  EXPECT_NE(message.find("rejected by static analysis"), std::string::npos);
  EXPECT_NE(message.find("zed"), std::string::npos) << message;
  EXPECT_NE(message.find("not TxOut(zed, s, p, a)"), std::string::npos)
      << message;
}

TEST(TemplateMonitorTest, RegisterTemplateRejectsBadSchema) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto handle = monitor.RegisterTemplate("bad", "q() :- Nope($x)");
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(handle.status().message().find("rejected by static analysis"),
            std::string::npos);
}

TEST(TemplateMonitorTest, BindValidatesArityAndTypes) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto tmpl = monitor.RegisterTemplate("watch", "q() :- TxOut(t, s, $pk, a)");
  ASSERT_TRUE(tmpl.ok());
  EXPECT_TRUE(monitor.template_batchable(*tmpl));

  auto too_many = monitor.Bind(*tmpl, {Value::Str("a"), Value::Str("b")});
  ASSERT_FALSE(too_many.ok());
  EXPECT_NE(too_many.status().message().find("parameters"),
            std::string::npos);

  // $pk sits in a string column: an int binding is the same registration
  // error the grounded compile would report.
  auto wrong_type = monitor.Bind(*tmpl, {Value::Int(3)});
  ASSERT_FALSE(wrong_type.ok());
  EXPECT_NE(wrong_type.status().message().find("wrong type"),
            std::string::npos);

  EXPECT_TRUE(monitor.Bind(*tmpl, {Value::Str("U8Pk")}).ok());
  EXPECT_EQ(monitor.size(), 1u);
}

TEST(TemplateMonitorTest, BindRejectsForeignTemplateHandle) {
  BlockchainDatabase db_a = MakeRunningExample();
  BlockchainDatabase db_b = MakeRunningExample();
  ConstraintMonitor monitor_a(&db_a);
  ConstraintMonitor monitor_b(&db_b);
  auto tmpl_a =
      monitor_a.RegisterTemplate("watch", "q() :- TxOut(t, s, $pk, a)");
  auto tmpl_b =
      monitor_b.RegisterTemplate("watch", "q() :- TxOut(t, s, $pk, a)");
  ASSERT_TRUE(tmpl_a.ok());
  ASSERT_TRUE(tmpl_b.ok());
  // Same index, different owners: the handles are distinct and unusable
  // across monitors.
  EXPECT_EQ(tmpl_a->value(), tmpl_b->value());
  EXPECT_NE(*tmpl_a, *tmpl_b);
  auto bound = monitor_b.Bind(*tmpl_a, {Value::Str("U8Pk")});
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("different monitor"),
            std::string::npos);
  EXPECT_TRUE(monitor_b.template_label(*tmpl_a).empty());
  EXPECT_EQ(monitor_b.template_analysis(*tmpl_a), nullptr);
}

// The old footgun, pinned: handles from different monitors whose indices
// collide must not compare equal or resolve against the wrong monitor.
TEST(TemplateMonitorTest, CrossMonitorHandlesNeverResolve) {
  BlockchainDatabase db_a = MakeRunningExample();
  BlockchainDatabase db_b = MakeRunningExample();
  ConstraintMonitor monitor_a(&db_a);
  ConstraintMonitor monitor_b(&db_b);
  auto in_a = monitor_a.Add("a", Q("q() :- TxOut(t, s, 'U8Pk', a)"));
  auto in_b = monitor_b.Add("b", Q("q() :- TxOut(t, s, 'U3Pk', a)"));
  ASSERT_TRUE(in_a.ok());
  ASSERT_TRUE(in_b.ok());
  ASSERT_EQ(in_a->value(), in_b->value());  // Index collision by design.
  EXPECT_NE(*in_a, *in_b);

  ASSERT_TRUE(monitor_a.Poll().ok());
  ASSERT_TRUE(monitor_b.Poll().ok());
  // Presented to the wrong monitor, the handle reads as nothing...
  EXPECT_EQ(monitor_b.verdict(*in_a), Verdict::kUnknown);
  EXPECT_TRUE(monitor_b.label(*in_a).empty());
  EXPECT_EQ(monitor_b.analysis(*in_a), nullptr);
  // ...and cannot remove the colliding entry.
  auto removed = monitor_b.Remove(*in_a);
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor_b.size(), 1u);
  // The rightful owner still works.
  EXPECT_TRUE(monitor_a.Remove(*in_a).ok());
}

TEST(TemplateMonitorTest, RemoveReportsTypedErrors) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto invalid = monitor.Remove(MonitorHandle());
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.code(), StatusCode::kInvalidArgument);

  auto handle = monitor.Add("u8", Q("q() :- TxOut(t, s, 'U8Pk', a)"));
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(monitor.Remove(*handle).ok());
  auto again = monitor.Remove(*handle);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kNotFound);
  EXPECT_EQ(monitor.size(), 0u);
}

// --- Class bookkeeping --------------------------------------------------

TEST(TemplateMonitorTest, AddCanonicalizationSharesClasses) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  ASSERT_TRUE(monitor.Add("u8", Q("q() :- TxOut(t, s, 'U8Pk', a)")).ok());
  ASSERT_TRUE(monitor.Add("u3", Q("q() :- TxOut(t, s, 'U3Pk', a)")).ok());
  ASSERT_TRUE(monitor.Add("u9", Q("q() :- TxOut(t, s, 'U9Pk', a)")).ok());
  EXPECT_EQ(monitor.num_classes(), 1u);
  // A different skeleton opens a second class.
  ASSERT_TRUE(
      monitor.Add("in", Q("q() :- TxIn(t, s, 'U1Pk', a, n, g)")).ok());
  EXPECT_EQ(monitor.num_classes(), 2u);
  // RegisterTemplate never merges, even for an identical template: the
  // label owns the class.
  auto tmpl =
      monitor.RegisterTemplate("watch", "q() :- TxOut(t, s, $b0, a)");
  ASSERT_TRUE(tmpl.ok());
  EXPECT_EQ(monitor.num_classes(), 3u);

  ASSERT_TRUE(monitor.Poll().ok());
  // The three same-class Adds ran through one shared class plan.
  EXPECT_GE(monitor.poll_stats().classes_evaluated, 1u);
  EXPECT_GE(monitor.poll_stats().constraints_batched, 3u);
}

TEST(TemplateMonitorTest, BatchedVerdictsMatchPerConstraintAdds) {
  BlockchainDatabase template_db = MakeRunningExample();
  BlockchainDatabase add_db = MakeRunningExample();
  ConstraintMonitor templated(&template_db);
  ConstraintMonitor added(&add_db);

  auto tmpl =
      templated.RegisterTemplate("watch", "q() :- TxOut(t, s, $pk, a)");
  ASSERT_TRUE(tmpl.ok());
  const char* pks[] = {"U8Pk", "U3Pk", "U9Pk", "U5Pk"};
  std::vector<MonitorHandle> bound;
  std::vector<MonitorHandle> plain;
  for (const char* pk : pks) {
    auto b = templated.Bind(*tmpl, {Value::Str(pk)});
    auto a = added.Add(pk, Q("q() :- TxOut(t, s, '" + std::string(pk) +
                             "', a)"));
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(a.ok());
    bound.push_back(*b);
    plain.push_back(*a);
  }

  ASSERT_TRUE(templated.Poll().ok());
  ASSERT_TRUE(added.Poll().ok());
  for (std::size_t i = 0; i < bound.size(); ++i) {
    EXPECT_EQ(templated.verdict(bound[i]), added.verdict(plain[i])) << pks[i];
  }
  EXPECT_EQ(templated.verdict(bound[0]), Verdict::kPossible);
  EXPECT_EQ(templated.verdict(bound[1]), Verdict::kHappened);
  EXPECT_EQ(templated.verdict(bound[2]), Verdict::kImpossible);
  EXPECT_EQ(templated.poll_stats().classes_evaluated, 1u);
  EXPECT_EQ(templated.poll_stats().constraints_batched, 4u);
}

TEST(TemplateMonitorTest, BaseRemovalDirtiesBatchClass) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto tmpl = monitor.RegisterTemplate("watch", "q() :- TxOut(t, s, $pk, a)");
  ASSERT_TRUE(tmpl.ok());
  auto u3 = monitor.Bind(*tmpl, {Value::Str("U3Pk")});
  auto u9 = monitor.Bind(*tmpl, {Value::Str("U9Pk")});
  ASSERT_TRUE(u3.ok());
  ASSERT_TRUE(u9.ok());
  const Tuple row({Value::Int(99), Value::Int(1), Value::Str("U9Pk"),
                   Value::Int(1)});
  ASSERT_TRUE(db.InsertCurrent("TxOut", row).ok());
  ASSERT_TRUE(monitor.Poll().ok());
  EXPECT_EQ(monitor.verdict(*u9), Verdict::kHappened);

  // The retraction dirties the class through the shared footprint; the
  // whole class re-runs and only the affected member transitions.
  ASSERT_TRUE(db.RemoveCurrent("TxOut", row).ok());
  const auto classes_before = monitor.poll_stats().classes_evaluated;
  const auto batched_before = monitor.poll_stats().constraints_batched;
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].after, Verdict::kImpossible);
  EXPECT_EQ(monitor.verdict(*u9), Verdict::kImpossible);
  EXPECT_EQ(monitor.verdict(*u3), Verdict::kHappened);
  EXPECT_EQ(monitor.poll_stats().classes_evaluated - classes_before, 1u);
  EXPECT_EQ(monitor.poll_stats().constraints_batched - batched_before, 2u);
}

TEST(TemplateMonitorTest, RemovalPollRefreshesBatchMembership) {
  // A base removal dirties the class; the re-run must pick up membership
  // changes made since the previous poll (the removed binding's slot in the
  // class's binding map goes dead), not replay a stale member list.
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto tmpl = monitor.RegisterTemplate("watch", "q() :- TxOut(t, s, $pk, a)");
  ASSERT_TRUE(tmpl.ok());
  auto u5 = monitor.Bind(*tmpl, {Value::Str("U5Pk")});
  auto u9 = monitor.Bind(*tmpl, {Value::Str("U9Pk")});
  ASSERT_TRUE(u5.ok());
  ASSERT_TRUE(u9.ok());
  const Tuple row({Value::Int(99), Value::Int(1), Value::Str("U9Pk"),
                   Value::Int(1)});
  ASSERT_TRUE(db.InsertCurrent("TxOut", row).ok());
  ASSERT_TRUE(monitor.Poll().ok());  // Evaluates the two-member class.

  // Unbind one member, retract its row, and bind a fresh member before the
  // next poll.
  ASSERT_TRUE(monitor.Remove(*u9).ok());
  ASSERT_TRUE(db.RemoveCurrent("TxOut", row).ok());
  auto u3 = monitor.Bind(*tmpl, {Value::Str("U3Pk")});
  ASSERT_TRUE(u3.ok());

  const auto batched_before = monitor.poll_stats().constraints_batched;
  ASSERT_TRUE(monitor.Poll().ok());
  EXPECT_EQ(monitor.verdict(*u5), Verdict::kPossible);
  EXPECT_EQ(monitor.verdict(*u3), Verdict::kHappened);
  // Exactly the surviving + new member ran through the class plan — the
  // removed binding is gone from the selection.
  EXPECT_EQ(monitor.poll_stats().constraints_batched - batched_before, 2u);
}

TEST(TemplateMonitorTest, ChangesCarryTemplateContext) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto tmpl = monitor.RegisterTemplate("payout", "q() :- TxOut(t, s, $pk, a)");
  ASSERT_TRUE(tmpl.ok());
  auto handle = monitor.Bind(*tmpl, {Value::Str("U8Pk")});
  ASSERT_TRUE(handle.ok());
  // The bound member's label is derived from the class label + binding.
  EXPECT_NE(monitor.label(*handle).find("payout"), std::string::npos);
  EXPECT_NE(monitor.label(*handle).find("U8Pk"), std::string::npos);

  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].template_label, "payout");
  EXPECT_NE((*changes)[0].binding_summary.find("U8Pk"), std::string::npos);
  EXPECT_EQ((*changes)[0].after, Verdict::kPossible);
}

TEST(TemplateMonitorTest, AddMadeClassIsLabeledByItsCanonicalTemplate) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto handle =
      monitor.Add("u7", "[q(sum(a)) :- TxOut(t, s, 'U7Pk', a)] >= 4");
  ASSERT_TRUE(handle.ok()) << handle.status();
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].template_label,
            "[q(sum(v2)) :- TxOut(v0, v1, $p0, v2)] >= $p1");
  EXPECT_EQ((*changes)[0].binding_summary, "('U7Pk', 4)");
}

TEST(TemplateMonitorTest, RemovingOneMemberLeavesSiblings) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto tmpl = monitor.RegisterTemplate("watch", "q() :- TxOut(t, s, $pk, a)");
  ASSERT_TRUE(tmpl.ok());
  auto u8 = monitor.Bind(*tmpl, {Value::Str("U8Pk")});
  auto u3 = monitor.Bind(*tmpl, {Value::Str("U3Pk")});
  auto u9 = monitor.Bind(*tmpl, {Value::Str("U9Pk")});
  ASSERT_TRUE(u8.ok());
  ASSERT_TRUE(u3.ok());
  ASSERT_TRUE(u9.ok());
  ASSERT_TRUE(monitor.Poll().ok());

  EXPECT_TRUE(monitor.Remove(*u3).ok());
  EXPECT_EQ(monitor.size(), 2u);
  EXPECT_EQ(monitor.verdict(*u3), Verdict::kUnknown);

  // Dirty the class; the surviving members still evaluate correctly.
  ASSERT_TRUE(db.ApplyPending(4).ok());   // T5 confirms.
  ASSERT_TRUE(db.DiscardPending(0).ok());  // T1 evicted.
  ASSERT_TRUE(monitor.Poll().ok());
  EXPECT_EQ(monitor.verdict(*u8), Verdict::kImpossible);
  EXPECT_EQ(monitor.verdict(*u9), Verdict::kImpossible);
  EXPECT_EQ(monitor.verdict(*u3), Verdict::kUnknown);
}

// --- Evaluation paths ---------------------------------------------------

TEST(TemplateMonitorTest, TransitionsFlowThroughBatchPath) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto tmpl = monitor.RegisterTemplate("watch", "q() :- TxOut(t, s, $pk, a)");
  ASSERT_TRUE(tmpl.ok());
  auto handle = monitor.Bind(*tmpl, {Value::Str("U8Pk")});
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(monitor.Poll().ok());
  EXPECT_EQ(monitor.verdict(*handle), Verdict::kPossible);

  ASSERT_TRUE(db.ApplyPending(4).ok());
  ASSERT_TRUE(db.DiscardPending(0).ok());
  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok());
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].before, Verdict::kPossible);
  EXPECT_EQ((*changes)[0].after, Verdict::kImpossible);
}

TEST(TemplateMonitorTest, ExplicitAlgorithmAppliesOnlyToSearches) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  DcSatOptions opt_only;
  opt_only.algorithm = DcSatAlgorithm::kOpt;

  // A connected template: the requested search decides the member the
  // probes leave open, and the probes settle the rest.
  auto watch = monitor.RegisterTemplate("watch", "q() :- TxOut(t, s, $pk, a)");
  ASSERT_TRUE(watch.ok());
  auto u8 = monitor.Bind(*watch, {Value::Str("U8Pk")});
  auto u9 = monitor.Bind(*watch, {Value::Str("U9Pk")});
  ASSERT_TRUE(u8.ok());
  ASSERT_TRUE(u9.ok());
  ASSERT_TRUE(monitor.Poll(opt_only).ok());
  EXPECT_EQ(monitor.verdict(*u8), Verdict::kPossible);
  EXPECT_EQ(monitor.verdict(*u9), Verdict::kImpossible);

  // A disconnected template, for which OptDCSat is unsound. Members the
  // probes settle never run the requested search, so the poll succeeds...
  const char* pair_text = "q() :- TxOut(t, s, $pk, a), TxIn(u, v, w, b, n, g)";
  auto pair = monitor.RegisterTemplate("pair", pair_text);
  ASSERT_TRUE(pair.ok());
  auto u3_pair = monitor.Bind(*pair, {Value::Str("U3Pk")});
  auto u9_pair = monitor.Bind(*pair, {Value::Str("U9Pk")});
  ASSERT_TRUE(u3_pair.ok());
  ASSERT_TRUE(u9_pair.ok());
  ASSERT_TRUE(monitor.Poll(opt_only).ok());
  EXPECT_EQ(monitor.verdict(*u3_pair), Verdict::kHappened);
  EXPECT_EQ(monitor.verdict(*u9_pair), Verdict::kImpossible);

  // ...while a member that reaches a search validates the request, and the
  // failed poll commits nothing.
  auto u8_pair = monitor.Bind(*pair, {Value::Str("U8Pk")});
  ASSERT_TRUE(u8_pair.ok());
  auto rejected = monitor.Poll(opt_only);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("connected"), std::string::npos);
  EXPECT_EQ(monitor.verdict(*u8_pair), Verdict::kUnknown);

  DcSatEngine reference(&db);
  ASSERT_TRUE(monitor.Poll().ok());
  auto tmpl = ConstraintTemplate::Parse(pair_text);
  ASSERT_TRUE(tmpl.ok());
  EXPECT_EQ(monitor.verdict(*u8_pair),
            GroundedVerdict(db, reference, *tmpl, {Value::Str("U8Pk")}));
}

TEST(TemplateMonitorTest, NonBatchableTemplateUsesGroundedPath) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  // $floor only occurs in a comparison: not projectable, so its members
  // are probed one by one through the class plan, never by answer passes.
  auto tmpl = monitor.RegisterTemplate(
      "big", "q() :- TxOut(t, s, p, a), a > $floor");
  ASSERT_TRUE(tmpl.ok());
  EXPECT_FALSE(monitor.template_batchable(*tmpl));
  auto over3 = monitor.Bind(*tmpl, {Value::Real(3.0)});
  auto over99 = monitor.Bind(*tmpl, {Value::Real(99.0)});
  ASSERT_TRUE(over3.ok());
  ASSERT_TRUE(over99.ok());
  ASSERT_TRUE(monitor.Poll().ok());
  EXPECT_EQ(monitor.verdict(*over3), Verdict::kHappened);  // (2,2) pays 4.
  EXPECT_EQ(monitor.verdict(*over99), Verdict::kImpossible);
  EXPECT_EQ(monitor.poll_stats().classes_evaluated, 0u);
}

TEST(TemplateMonitorTest, MembersMatchGroundedReferenceAcrossChurn) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  DcSatEngine reference(&db);
  const char* text = "q() :- TxOut(t, s, $pk, a)";
  auto tmpl = monitor.RegisterTemplate("watch", text);
  ASSERT_TRUE(tmpl.ok());
  auto parsed = ConstraintTemplate::Parse(text);
  ASSERT_TRUE(parsed.ok());

  std::vector<MonitorHandle> handles;
  std::vector<std::vector<Value>> bindings;
  for (const char* pk : {"U1Pk", "U2Pk", "U4Pk", "U5Pk", "U7Pk", "U8Pk"}) {
    bindings.push_back({Value::Str(pk)});
    auto handle = monitor.Bind(*tmpl, bindings.back());
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }

  auto compare = [&](const char* when) {
    ASSERT_TRUE(monitor.Poll().ok());
    for (std::size_t i = 0; i < handles.size(); ++i) {
      EXPECT_EQ(monitor.verdict(handles[i]),
                GroundedVerdict(db, reference, *parsed, bindings[i]))
          << when << " member " << i;
    }
  };
  compare("initial");
  ASSERT_TRUE(db.ApplyPending(0).ok());
  compare("after T1 confirms");
  ASSERT_TRUE(db.DiscardPending(2).ok());
  compare("after T3 evicted");
}

}  // namespace
}  // namespace bcdb
