#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/blockchain_db.h"
#include "core/mutation_log.h"

namespace bcdb {
namespace {

MutationEvent Event(MutationKind kind) {
  MutationEvent event;
  event.kind = kind;
  return event;
}

TEST(MutationLogTest, StampsMonotoneSequenceNumbers) {
  MutationLog log;
  EXPECT_EQ(log.begin_seq(), 0u);
  EXPECT_EQ(log.end_seq(), 0u);
  for (int i = 0; i < 5; ++i) log.Append(Event(MutationKind::kPendingAdded));
  EXPECT_EQ(log.begin_seq(), 0u);
  EXPECT_EQ(log.end_seq(), 5u);

  std::vector<MutationEvent> events;
  ASSERT_EQ(log.ReadSince(0, &events), MutationLog::ReadResult::kOk);
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
  }
}

TEST(MutationLogTest, ReadSinceReturnsSuffixAndEmptyTail) {
  MutationLog log;
  for (int i = 0; i < 4; ++i) log.Append(Event(MutationKind::kPendingAdded));

  std::vector<MutationEvent> tail;
  ASSERT_EQ(log.ReadSince(2, &tail), MutationLog::ReadResult::kOk);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 2u);
  EXPECT_EQ(tail[1].seq, 3u);

  // A caught-up cursor reads nothing but succeeds.
  std::vector<MutationEvent> none;
  EXPECT_EQ(log.ReadSince(4, &none), MutationLog::ReadResult::kOk);
  EXPECT_TRUE(none.empty());
}

TEST(MutationLogTest, ForeignCursorIsACallerBugDistinctFromTrimming) {
  MutationLog log;
  for (int i = 0; i < 4; ++i) log.Append(Event(MutationKind::kPendingAdded));

  // A cursor past the end cannot come from this log: it is a caller bug
  // (mixing cursors between logs), asserted in debug builds and reported as
  // kForeignCursor — not kTrimmed — in release builds, so consumers never
  // mistake it for a legitimate "rebuild your state" signal.
  std::vector<MutationEvent> none;
  EXPECT_DEBUG_DEATH(
      {
        const MutationLog::ReadResult result = log.ReadSince(5, &none);
        EXPECT_EQ(result, MutationLog::ReadResult::kForeignCursor);
        EXPECT_TRUE(none.empty());
      },
      "cursor beyond end_seq");
}

TEST(MutationLogTest, TrimsToCapacityAndFailsLaggingReaders) {
  MutationLog log(/*capacity=*/3);
  for (int i = 0; i < 7; ++i) {
    log.Append(Event(MutationKind::kPendingDiscarded));
  }
  EXPECT_EQ(log.end_seq(), 7u);
  EXPECT_EQ(log.begin_seq(), 4u);

  // A reader whose cursor fell out of the retention window learns it missed
  // events; the output vector is untouched.
  std::vector<MutationEvent> events;
  EXPECT_EQ(log.ReadSince(3, &events), MutationLog::ReadResult::kTrimmed);
  EXPECT_TRUE(events.empty());

  // The oldest retained seq is still readable.
  ASSERT_EQ(log.ReadSince(4, &events), MutationLog::ReadResult::kOk);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().seq, 4u);
  EXPECT_EQ(events.back().seq, 6u);
}

TEST(MutationLogTest, ZeroCapacityClampsToOne) {
  MutationLog log(/*capacity=*/0);
  log.Append(Event(MutationKind::kPendingAdded));
  log.Append(Event(MutationKind::kPendingApplied));
  EXPECT_EQ(log.begin_seq(), 1u);
  std::vector<MutationEvent> events;
  ASSERT_EQ(log.ReadSince(1, &events), MutationLog::ReadResult::kOk);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MutationKind::kPendingApplied);
}

/// End-to-end: the database records every mutation kind with the touched
/// relations in its log, the one stream every consumer reads.
class DatabaseMutationsTest : public ::testing::Test {
 protected:
  static BlockchainDatabase MakeDb() {
    Catalog catalog;
    EXPECT_TRUE(catalog
                    .AddRelation(RelationSchema(
                        "R", {Attribute{"a", ValueType::kInt, false}}))
                    .ok());
    EXPECT_TRUE(catalog
                    .AddRelation(RelationSchema(
                        "S", {Attribute{"x", ValueType::kInt, false}}))
                    .ok());
    auto db = BlockchainDatabase::Create(std::move(catalog), ConstraintSet{});
    EXPECT_TRUE(db.ok());
    return std::move(*db);
  }
};

TEST_F(DatabaseMutationsTest, RecordsEveryMutationKind) {
  BlockchainDatabase db = MakeDb();
  const std::size_t r_id = *db.database().RelationId("R");
  const std::size_t s_id = *db.database().RelationId("S");

  ASSERT_TRUE(db.InsertCurrent("R", Tuple({Value::Int(1)})).ok());

  Transaction both("both");
  both.Add("R", Tuple({Value::Int(2)}));
  both.Add("S", Tuple({Value::Int(3)}));
  auto applied_id = db.AddPending(both);
  ASSERT_TRUE(applied_id.ok());

  Transaction doomed("doomed");
  doomed.Add("S", Tuple({Value::Int(4)}));
  auto doomed_id = db.AddPending(doomed);
  ASSERT_TRUE(doomed_id.ok());

  ASSERT_TRUE(db.ApplyPending(*applied_id).ok());
  ASSERT_TRUE(db.DiscardPending(*doomed_id).ok());

  std::vector<MutationEvent> events;
  ASSERT_EQ(db.mutations().ReadSince(0, &events),
            MutationLog::ReadResult::kOk);
  ASSERT_EQ(events.size(), 5u);

  EXPECT_EQ(events[0].kind, MutationKind::kCurrentInserted);
  EXPECT_EQ(events[0].relation_ids, std::vector<std::size_t>{r_id});

  EXPECT_EQ(events[1].kind, MutationKind::kPendingAdded);
  EXPECT_EQ(events[1].pending_id, *applied_id);
  EXPECT_EQ(events[1].relation_ids, (std::vector<std::size_t>{r_id, s_id}));

  EXPECT_EQ(events[2].kind, MutationKind::kPendingAdded);
  EXPECT_EQ(events[2].pending_id, *doomed_id);
  EXPECT_EQ(events[2].relation_ids, std::vector<std::size_t>{s_id});

  EXPECT_EQ(events[3].kind, MutationKind::kPendingApplied);
  EXPECT_EQ(events[3].pending_id, *applied_id);
  EXPECT_EQ(events[3].relation_ids, (std::vector<std::size_t>{r_id, s_id}));

  EXPECT_EQ(events[4].kind, MutationKind::kPendingDiscarded);
  EXPECT_EQ(events[4].pending_id, *doomed_id);
  EXPECT_EQ(events[4].relation_ids, std::vector<std::size_t>{s_id});

  // Versions advance with each mutation and seqs are dense.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
    EXPECT_GT(events[i].version, events[i - 1].version);
  }

  // The relation footprint of a discarded transaction survives the discard
  // (its tuples are gone from the store but consumers may still need to
  // reason about the slot) while the slot itself is retired.
  EXPECT_FALSE(db.IsPending(*doomed_id));
  EXPECT_EQ(db.PendingRelations(*doomed_id), std::vector<std::size_t>{s_id});
}

// Exhaustive over the enum: every kind below kNumMutationKinds must map to
// a distinct, real name — "?" would mean a kind was added without updating
// MutationKindToString (or kNumMutationKinds without a new enumerator).
TEST(MutationKindToStringTest, CoversEveryKindWithDistinctNames) {
  std::set<std::string> names;
  for (std::size_t raw = 0; raw < kNumMutationKinds; ++raw) {
    const char* name = MutationKindToString(static_cast<MutationKind>(raw));
    EXPECT_STRNE(name, "?") << "kind " << raw << " has no name";
    EXPECT_TRUE(names.insert(name).second)
        << "kind " << raw << " reuses name \"" << name << "\"";
  }
  EXPECT_EQ(names.size(), kNumMutationKinds);
  EXPECT_EQ(MutationKindToString(MutationKind::kCurrentRemoved),
            std::string("current-removed"));
  EXPECT_EQ(MutationKindToString(MutationKind::kPendingRestored),
            std::string("pending-restored"));
}

}  // namespace
}  // namespace bcdb
