#ifndef BCDB_TESTS_GROUNDED_REFERENCE_H_
#define BCDB_TESTS_GROUNDED_REFERENCE_H_

#include <vector>

#include <gtest/gtest.h>

#include "core/dcsat.h"
#include "core/monitor.h"
#include "query/compiled_query.h"
#include "query/template.h"

namespace bcdb {
namespace testing_fixtures {

/// The grounded reference verdict of one standing constraint, decided from
/// scratch the way a monitor member's verdict is defined: q over R alone
/// (kHappened), else `engine.Check` under `options`. `engine` must be bound
/// to `db`. Returns kUnknown (and records a test failure) on any error.
inline ConstraintMonitor::Verdict GroundedVerdict(
    const BlockchainDatabase& db, DcSatEngine& engine,
    const DenialConstraint& q, const DcSatOptions& options = {}) {
  auto compiled = CompiledQuery::Compile(q, &db.database());
  EXPECT_TRUE(compiled.ok()) << compiled.status();
  if (!compiled.ok()) return ConstraintMonitor::Verdict::kUnknown;
  if (compiled->Evaluate(db.BaseView())) {
    return ConstraintMonitor::Verdict::kHappened;
  }
  auto result = engine.Check(q, options);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return ConstraintMonitor::Verdict::kUnknown;
  if (!result->decided) return ConstraintMonitor::Verdict::kUndecided;
  return result->satisfied ? ConstraintMonitor::Verdict::kImpossible
                           : ConstraintMonitor::Verdict::kPossible;
}

/// Same for a template member: the template instantiated with `binding`.
inline ConstraintMonitor::Verdict GroundedVerdict(
    const BlockchainDatabase& db, DcSatEngine& engine,
    const ConstraintTemplate& tmpl, const std::vector<Value>& binding,
    const DcSatOptions& options = {}) {
  auto q = tmpl.Instantiate(binding);
  EXPECT_TRUE(q.ok()) << q.status();
  if (!q.ok()) return ConstraintMonitor::Verdict::kUnknown;
  return GroundedVerdict(db, engine, *q, options);
}

}  // namespace testing_fixtures
}  // namespace bcdb

#endif  // BCDB_TESTS_GROUNDED_REFERENCE_H_
