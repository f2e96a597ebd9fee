// A non-monotone member whose exhaustive search passes the engine's built-in
// world cap (DcSatEngine::kMaxExhaustiveWorlds) is undecided, like a member
// whose budget expired, and does not keep the other members' verdicts from
// committing.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/dcsat.h"
#include "core/monitor.h"

namespace bcdb {
namespace {

using Verdict = ConstraintMonitor::Verdict;

TEST(ExhaustiveCapTest, NonMonotoneMemberDoesNotWedgeThePoll) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  ASSERT_TRUE(
      catalog
          .AddRelation(RelationSchema("S", {Attribute{"a", ValueType::kInt,
                                                      false}}))
          .ok());
  auto db = BlockchainDatabase::Create(std::move(catalog), ConstraintSet());
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->InsertCurrent("R", Tuple({Value::Int(1), Value::Int(2)}))
                  .ok());
  ASSERT_TRUE(db->InsertCurrent("S", Tuple({Value::Int(1)})).ok());
  // 21 independent pending transactions: 2^21 possible worlds, past the
  // cap, and the non-monotone member holds in none of them.
  constexpr std::int64_t kPending = 21;
  static_assert((std::size_t{1} << kPending) >
                DcSatEngine::kMaxExhaustiveWorlds);
  for (std::int64_t i = 0; i < kPending; ++i) {
    Transaction txn;
    txn.Add("S", Tuple({Value::Int(100 + i)}));
    ASSERT_TRUE(db->AddPending(txn).ok());
  }

  ConstraintMonitor monitor(&*db);  // Unbudgeted.
  auto non_monotone = monitor.Add("orphan", "q() :- R(x, y), not S(x)");
  auto unrelated = monitor.Add("r70", "q() :- R(7, 0)");
  ASSERT_TRUE(non_monotone.ok()) << non_monotone.status();
  ASSERT_TRUE(unrelated.ok()) << unrelated.status();

  auto changes = monitor.Poll();
  ASSERT_TRUE(changes.ok()) << changes.status();
  EXPECT_EQ(changes->size(), 2u);
  EXPECT_EQ(monitor.verdict(*non_monotone), Verdict::kUndecided);
  EXPECT_EQ(monitor.verdict(*unrelated), Verdict::kImpossible);
  EXPECT_EQ(monitor.poll_stats().undecided_verdicts, 1u);

  // No budget reaches past the cap, so on an unchanged database the member
  // sits out instead of repeating the same search.
  const std::size_t searches = monitor.poll_stats().searches;
  for (int i = 0; i < 3; ++i) {
    auto again = monitor.Poll();
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_TRUE(again->empty());
  }
  EXPECT_EQ(monitor.poll_stats().searches, searches);
  EXPECT_EQ(monitor.poll_stats().budget_escalations, 0u);
  EXPECT_EQ(monitor.verdict(*non_monotone), Verdict::kUndecided);
}

}  // namespace
}  // namespace bcdb
