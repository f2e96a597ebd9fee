#include <gtest/gtest.h>

#include "core/blockchain_db.h"
#include "running_example.h"

namespace bcdb {
namespace {

using testing_fixtures::MakeRunningExample;

TEST(BlockchainDatabaseTest, CreateValidatesConstraintIds) {
  Catalog catalog = bitcoin::MakeBitcoinCatalog();
  Catalog other = bitcoin::MakeBitcoinCatalog();
  ASSERT_TRUE(other
                  .AddRelation(RelationSchema(
                      "Extra", {Attribute{"x", ValueType::kInt, false}}))
                  .ok());
  // An FD resolved against the larger catalog references a relation id the
  // smaller catalog does not have.
  ConstraintSet constraints;
  constraints.AddFd(*FunctionalDependency::Key(other, "Extra", {"x"}));
  EXPECT_FALSE(
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints))
          .ok());
}

TEST(BlockchainDatabaseTest, VersionBumpsOnEveryMutation) {
  BlockchainDatabase db = MakeRunningExample();
  const std::uint64_t v0 = db.version();

  ASSERT_TRUE(db.InsertCurrent("TxOut", Tuple({Value::Int(99), Value::Int(1),
                                               Value::Str("NewPk"),
                                               Value::Int(1)}))
                  .ok());
  const std::uint64_t v1 = db.version();
  EXPECT_GT(v1, v0);

  Transaction txn("t");
  txn.Add("TxOut",
          Tuple({Value::Int(98), Value::Int(1), Value::Str("PendPk"),
                 Value::Int(1)}));
  auto id = db.AddPending(txn);
  ASSERT_TRUE(id.ok());
  const std::uint64_t v2 = db.version();
  EXPECT_GT(v2, v1);

  ASSERT_TRUE(db.ApplyPending(*id).ok());
  EXPECT_GT(db.version(), v2);

  const std::uint64_t v3 = db.version();
  ASSERT_TRUE(db.DiscardPending(2).ok());
  EXPECT_GT(db.version(), v3);
}

TEST(BlockchainDatabaseTest, AddPendingRejectsEmptyAndBadTuples) {
  BlockchainDatabase db = MakeRunningExample();
  EXPECT_EQ(db.AddPending(Transaction("empty")).status().code(),
            StatusCode::kInvalidArgument);

  // Schema violation rolls the whole transaction back.
  Transaction bad("bad");
  bad.Add("TxOut", Tuple({Value::Int(50), Value::Int(1), Value::Str("Pk"),
                          Value::Int(1)}));
  bad.Add("TxOut", Tuple({Value::Int(50)}));  // Wrong arity.
  const std::size_t pending_before = db.PendingIds().size();
  EXPECT_FALSE(db.AddPending(bad).ok());
  EXPECT_EQ(db.PendingIds().size(), pending_before);
  // The partially-inserted tuple must not be visible in any world.
  const auto txout_id = db.catalog().RelationId("TxOut");
  ASSERT_TRUE(txout_id.ok());
  EXPECT_FALSE(db.database()
                   .relation(*txout_id)
                   .ContainsVisible(Tuple({Value::Int(50), Value::Int(1),
                                           Value::Str("Pk"), Value::Int(1)}),
                                    db.PendingUnionView()));
}

TEST(BlockchainDatabaseTest, FailedAddPendingDoesNotPoisonLaterAdds) {
  BlockchainDatabase db = MakeRunningExample();
  const std::uint64_t version_before = db.version();
  const std::uint64_t log_end_before = db.mutations().end_seq();
  const std::size_t owners_before = db.database().num_owners();
  const std::size_t pending_before = db.num_pending();

  // A rejected add must leave NO trace: a leaked owner slot would make
  // every later transaction's owner tag run one ahead of its pending id,
  // tripping the id/owner invariant (and mutating state before erroring).
  Transaction bad("bad");
  bad.Add("TxOut", Tuple({Value::Int(60)}));  // Wrong arity.
  EXPECT_FALSE(db.AddPending(bad).ok());
  EXPECT_EQ(db.version(), version_before);
  EXPECT_EQ(db.mutations().end_seq(), log_end_before);
  EXPECT_EQ(db.database().num_owners(), owners_before);
  EXPECT_EQ(db.num_pending(), pending_before);

  // The database keeps accepting (and correctly publishing) transactions.
  Transaction good("good");
  good.Add("TxOut", Tuple({Value::Int(61), Value::Int(1), Value::Str("GPk"),
                           Value::Int(1)}));
  auto id = db.AddPending(good);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, pending_before);
  EXPECT_TRUE(db.IsPending(*id));
  EXPECT_GT(db.version(), version_before);
  EXPECT_EQ(db.mutations().end_seq(), log_end_before + 1);
}

TEST(BlockchainDatabaseTest, ApplyAndDiscardStateMachine) {
  BlockchainDatabase db = MakeRunningExample();
  EXPECT_TRUE(db.IsPending(0));
  ASSERT_TRUE(db.ApplyPending(0).ok());
  EXPECT_FALSE(db.IsPending(0));
  // No double apply / discard of a non-pending id.
  EXPECT_FALSE(db.ApplyPending(0).ok());
  EXPECT_FALSE(db.DiscardPending(0).ok());
  EXPECT_FALSE(db.ApplyPending(12345).ok());

  ASSERT_TRUE(db.DiscardPending(4).ok());
  EXPECT_FALSE(db.ApplyPending(4).ok());

  // PendingIds reflects the survivors.
  EXPECT_EQ(db.PendingIds(), (std::vector<PendingId>{1, 2, 3}));
}

TEST(BlockchainDatabaseTest, RemoveCurrentRetractsOnlyBaseOwnership) {
  BlockchainDatabase db = MakeRunningExample();
  const Tuple row({Value::Int(97), Value::Int(1), Value::Str("ReorgPk"),
                   Value::Int(5)});
  ASSERT_TRUE(db.InsertCurrent("TxOut", row).ok());
  const auto txout_id = db.catalog().RelationId("TxOut");
  ASSERT_TRUE(txout_id.ok());
  EXPECT_TRUE(db.database().relation(*txout_id).ContainsVisible(row, db.BaseView()));

  std::vector<MutationEvent> seen;
  const std::uint64_t cursor = db.mutations().end_seq();
  const std::uint64_t version_before = db.version();
  ASSERT_TRUE(db.RemoveCurrent("TxOut", row).ok());
  ASSERT_EQ(db.mutations().ReadSince(cursor, &seen),
            MutationLog::ReadResult::kOk);
  EXPECT_GT(db.version(), version_before);
  EXPECT_FALSE(db.database().relation(*txout_id).ContainsVisible(row, db.BaseView()));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].kind, MutationKind::kCurrentRemoved);
  EXPECT_EQ(seen[0].pending_id, kNoPendingId);
  EXPECT_EQ(seen[0].relation_ids, std::vector<std::size_t>{*txout_id});
  EXPECT_EQ(seen[0].tuple, row);  // Payload travels with the event.

  // Second removal: the base no longer owns the tuple.
  EXPECT_EQ(db.RemoveCurrent("TxOut", row).code(), StatusCode::kNotFound);
  // Never-inserted tuple and unknown relation are typed errors, no event.
  EXPECT_EQ(db.RemoveCurrent("TxOut", Tuple({Value::Int(96), Value::Int(9),
                                             Value::Str("NoPk"),
                                             Value::Int(1)}))
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(db.RemoveCurrent("Nope", row).ok());
  seen.clear();
  ASSERT_EQ(db.mutations().ReadSince(cursor, &seen),
            MutationLog::ReadResult::kOk);
  EXPECT_EQ(seen.size(), 1u);
}

TEST(BlockchainDatabaseTest, RemoveCurrentLeavesPendingOwnersIntact) {
  BlockchainDatabase db = MakeRunningExample();
  // A tuple owned by both the base and a pending transaction: retracting
  // the base ownership must keep the pending copy visible in its worlds.
  const Tuple row({Value::Int(95), Value::Int(1), Value::Str("SharedPk"),
                   Value::Int(2)});
  Transaction txn("shared");
  txn.Add("TxOut", row);
  auto id = db.AddPending(txn);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db.InsertCurrent("TxOut", row).ok());

  ASSERT_TRUE(db.RemoveCurrent("TxOut", row).ok());
  const auto txout_id = db.catalog().RelationId("TxOut");
  ASSERT_TRUE(txout_id.ok());
  const Relation& txout = db.database().relation(*txout_id);
  EXPECT_FALSE(txout.ContainsVisible(row, db.BaseView()));
  EXPECT_TRUE(txout.ContainsVisible(row, db.PendingUnionView()));
}

TEST(BlockchainDatabaseTest, UnapplyPendingRoundTripsThroughApplied) {
  BlockchainDatabase db = MakeRunningExample();
  // Never-applied ids (still pending, out of range) are typed errors.
  EXPECT_EQ(db.UnapplyPending(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.UnapplyPending(12345).code(), StatusCode::kInvalidArgument);

  const std::vector<std::size_t> footprint = db.PendingRelations(0);
  ASSERT_TRUE(db.ApplyPending(0).ok());
  EXPECT_FALSE(db.IsPending(0));

  std::vector<MutationEvent> seen;
  const std::uint64_t cursor = db.mutations().end_seq();
  ASSERT_TRUE(db.UnapplyPending(0).ok());
  ASSERT_EQ(db.mutations().ReadSince(cursor, &seen),
            MutationLog::ReadResult::kOk);
  EXPECT_TRUE(db.IsPending(0));
  EXPECT_EQ(db.pending_state(0), BlockchainDatabase::PendingState::kPending);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].kind, MutationKind::kPendingRestored);
  EXPECT_EQ(seen[0].pending_id, 0u);
  EXPECT_EQ(seen[0].relation_ids, footprint);

  // kApplied is no longer terminal: the slot cycles freely.
  EXPECT_EQ(db.UnapplyPending(0).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(db.ApplyPending(0).ok());
  ASSERT_TRUE(db.UnapplyPending(0).ok());
  ASSERT_TRUE(db.DiscardPending(0).ok());
  EXPECT_EQ(db.UnapplyPending(0).code(), StatusCode::kInvalidArgument);
}

TEST(BlockchainDatabaseTest, UnapplyRestoresPendingVisibility) {
  BlockchainDatabase db = MakeRunningExample();
  // T1's outputs leave the base and return to pending-only visibility.
  const auto txout_id = db.catalog().RelationId("TxOut");
  ASSERT_TRUE(txout_id.ok());
  const Relation& txout = db.database().relation(*txout_id);
  const Tuple t1_out({Value::Int(4), Value::Int(1), Value::Str("U5Pk"),
                      Value::Real(1)});
  ASSERT_TRUE(db.ApplyPending(0).ok());
  EXPECT_TRUE(txout.ContainsVisible(t1_out, db.BaseView()));
  ASSERT_TRUE(db.UnapplyPending(0).ok());
  EXPECT_FALSE(txout.ContainsVisible(t1_out, db.BaseView()));
  EXPECT_TRUE(txout.ContainsVisible(t1_out, db.PendingUnionView()));
}

TEST(BlockchainDatabaseTest, PendingUnionViewTracksSurvivors) {
  BlockchainDatabase db = MakeRunningExample();
  ASSERT_TRUE(db.DiscardPending(3).ok());  // Drop T4 (pays U8Pk).
  const auto txout_id = db.catalog().RelationId("TxOut");
  ASSERT_TRUE(txout_id.ok());
  const Relation& txout = db.database().relation(*txout_id);
  EXPECT_FALSE(txout.ContainsVisible(
      Tuple({Value::Int(7), Value::Int(2), Value::Str("U8Pk"),
             Value::Real(1)}),
      db.PendingUnionView()));
}

TEST(BlockchainDatabaseTest, LabelsAreAccessible) {
  BlockchainDatabase db = MakeRunningExample();
  EXPECT_EQ(db.pending(0).label(), "T1");
  EXPECT_EQ(db.pending(4).label(), "T5");
  EXPECT_EQ(db.pending(3).size(), 4u);  // T4: 2 inputs + 2 outputs.
}

TEST(BlockchainDatabaseTest, ListenersSeeRegistrationTimeFootprints) {
  // Regression: Apply/DiscardPending built their event's relation_ids
  // *after* tearing down the slot's tuples, so log readers of a discarded
  // slot could observe an empty (or partial) footprint and skip
  // invalidating affected relations. The footprint in the event must be
  // the registration-time one, and the database state visible when the
  // event is read must already reflect the completed mutation.
  BlockchainDatabase db = MakeRunningExample();
  const std::vector<std::size_t> apply_footprint = db.PendingRelations(0);
  const std::vector<std::size_t> discard_footprint = db.PendingRelations(3);
  ASSERT_FALSE(apply_footprint.empty());
  ASSERT_FALSE(discard_footprint.empty());

  std::vector<MutationEvent> seen;
  std::vector<BlockchainDatabase::PendingState> state_at_callback;
  std::uint64_t cursor = db.mutations().end_seq();
  // Reads the events published since the previous read, as a log consumer
  // polling right after each mutation does.
  auto read_new_events = [&] {
    std::vector<MutationEvent> events;
    ASSERT_EQ(db.mutations().ReadSince(cursor, &events),
              MutationLog::ReadResult::kOk);
    for (const MutationEvent& event : events) {
      seen.push_back(event);
      state_at_callback.push_back(db.pending_state(event.pending_id));
    }
    cursor = db.mutations().end_seq();
  };

  ASSERT_TRUE(db.ApplyPending(0).ok());
  read_new_events();
  ASSERT_TRUE(db.DiscardPending(3).ok());
  read_new_events();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].kind, MutationKind::kPendingApplied);
  EXPECT_EQ(seen[0].pending_id, 0u);
  EXPECT_EQ(seen[0].relation_ids, apply_footprint);
  EXPECT_EQ(state_at_callback[0], BlockchainDatabase::PendingState::kApplied);
  EXPECT_EQ(seen[1].kind, MutationKind::kPendingDiscarded);
  EXPECT_EQ(seen[1].pending_id, 3u);
  EXPECT_EQ(seen[1].relation_ids, discard_footprint);
  EXPECT_EQ(state_at_callback[1],
            BlockchainDatabase::PendingState::kDiscarded);
}

}  // namespace
}  // namespace bcdb
