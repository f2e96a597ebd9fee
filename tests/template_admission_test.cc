// Template admission is the check the class plan compiles with
// (ValidateQuery over the template, parameters bound): a parameter with no
// positive-atom site is admitted whatever its attribute's type, a parameter
// no single value fits is rejected at its `$name`, and a monitor Add is
// Canonicalize plus Bind, so a ground constraint's class reports the
// template's facts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "core/monitor.h"
#include "grounded_reference.h"
#include "query/compiled_query.h"
#include "query/template.h"
#include "running_example.h"

namespace bcdb {
namespace {

using testing_fixtures::GroundedVerdict;
using testing_fixtures::MakeRunningExample;

// $who fills only the STRING attribute TxIn.pk of a negated atom.
constexpr const char* kNegatedWho =
    "q() :- TxOut(t, s, p, a), not TxIn(t, s, $who, a, t, 'sig')";
// The same shape over U7Pk's outputs, which only pending T4 and T5 create,
// so its verdicts move as the database does.
constexpr const char* kNegatedWhoOfU7 =
    "q() :- TxOut(t, s, 'U7Pk', a), not TxIn(t, s, $who, a, t, 'sig')";

TEST(TemplateAdmissionTest, NegatedStringParameterRegistersAndMatchesGrounded) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  struct Member {
    ConstraintTemplate tmpl;
    std::vector<Value> binding;
    MonitorHandle handle;
  };
  std::vector<Member> members;
  for (const char* text : {kNegatedWho, kNegatedWhoOfU7}) {
    auto tmpl = ConstraintTemplate::Parse(text);
    ASSERT_TRUE(tmpl.ok()) << tmpl.status();
    auto handle = monitor.RegisterTemplate(text, *tmpl);
    ASSERT_TRUE(handle.ok()) << text << ": " << handle.status();
    for (const char* who : {"U1Pk", "U7Pk", "nobody"}) {
      auto member = monitor.Bind(*handle, {Value::Str(who)});
      ASSERT_TRUE(member.ok()) << member.status();
      members.push_back(Member{*tmpl, {Value::Str(who)}, *member});
    }
  }

  // A spend of T5's output (8, 1) that the negated atom matches for U7Pk.
  Transaction spend("spend");
  spend.Add("TxIn", Tuple({Value::Int(8), Value::Int(1), Value::Str("U7Pk"),
                           Value::Real(4), Value::Int(8),
                           Value::Str("sig")}));
  auto expect_grounded = [&](const std::string& step) {
    ASSERT_TRUE(monitor.Poll().ok()) << step;
    for (const Member& member : members) {
      DcSatEngine fresh(&db);
      EXPECT_EQ(monitor.verdict(member.handle),
                GroundedVerdict(db, fresh, member.tmpl, member.binding))
          << step << ": " << monitor.label(member.handle);
    }
  };
  expect_grounded("initial");
  auto spend_id = db.AddPending(spend);
  ASSERT_TRUE(spend_id.ok()) << spend_id.status();
  expect_grounded("spend pending");
  ASSERT_TRUE(db.ApplyPending(4).ok());  // T5 confirms.
  expect_grounded("T5 applied");
  ASSERT_TRUE(db.ApplyPending(*spend_id).ok());
  expect_grounded("spend applied");
}

TEST(TemplateAdmissionTest, AddOfGroundInstanceReportsTheTemplateClass) {
  BlockchainDatabase db = MakeRunningExample();
  ConstraintMonitor monitor(&db);
  auto handle = monitor.Add(
      "ground",
      "q() :- TxOut(t, s, p, a), not TxIn(t, s, 'U1Pk', a, t, 'sig')");
  ASSERT_TRUE(handle.ok()) << handle.status();
  const AnalysisReport* report = monitor.analysis(*handle);
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->ok()) << report->ErrorSummary();
  EXPECT_FALSE(report->analysis.monotone);
}

TEST(TemplateAdmissionTest, ParameterFillingIntAndStringIsRejectedAtIt) {
  const std::string text = "q() :- TxOut($x, s, p, a), TxIn(t, s, $x, a, n, g)";
  auto tmpl = ConstraintTemplate::Parse(text);
  ASSERT_TRUE(tmpl.ok()) << tmpl.status();
  BlockchainDatabase db = MakeRunningExample();

  AnalyzerOptions options;
  options.source_text = text;
  const TemplateAnalysis analysis =
      AnalyzeTemplate(*tmpl, db.database(), db.constraints(), options);
  ASSERT_FALSE(analysis.report.ok());
  EXPECT_FALSE(analysis.batchable);
  std::size_t errors = 0;
  for (const Diagnostic& diag : analysis.report.diagnostics) {
    if (diag.severity != Severity::kError) continue;
    ++errors;
    EXPECT_EQ(diag.code, AnalysisCode::kConstantTypeMismatch);
    EXPECT_NE(diag.message.find("'$x'"), std::string::npos) << diag.message;
    EXPECT_EQ(diag.message.find("constant 0"), std::string::npos)
        << diag.message;
    // The caret sits on the `$x` token.
    EXPECT_EQ(text.substr(diag.span.offset, diag.span.length), "$x");
  }
  EXPECT_EQ(errors, 1u);
  // The class plan's compile fails on the same defect.
  EXPECT_FALSE(CompiledQuery::Compile(tmpl->constraint(), &db.database()).ok());

  ConstraintMonitor monitor(&db);
  auto registered = monitor.RegisterTemplate("mixed", *tmpl);
  ASSERT_FALSE(registered.ok());
  EXPECT_NE(registered.status().message().find("'$x'"), std::string::npos)
      << registered.status();
  EXPECT_EQ(registered.status().message().find("constant 0"),
            std::string::npos)
      << registered.status();
  EXPECT_EQ(monitor.num_classes(), 0u);
}

}  // namespace
}  // namespace bcdb
