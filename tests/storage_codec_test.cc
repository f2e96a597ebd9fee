#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "storage/crc32c.h"
#include "storage/record_codec.h"
#include "storage/segment.h"
#include "storage/wal.h"
#include "storage_test_util.h"

namespace bcdb {
namespace {

using storage::Crc32c;
using storage::DecodeMutation;
using storage::DecodeTupleValues;
using storage::DecodeValue;
using storage::EncodeMutation;
using storage::EncodeSnapshot;
using storage::EncodeTupleValues;
using storage::EncodeValue;
using storage::MaskCrc;
using storage::PersistedMutation;
using storage::RestoreSnapshot;
using storage::SchemaFingerprint;
using storage::UnmaskCrc;
using storage_test::ExpectEquivalent;
using storage_test::MakeTestCatalog;

TEST(Crc32cTest, MatchesKnownAnswerVector) {
  // The canonical CRC-32C check value (RFC 3720 appendix / every
  // implementation's self-test).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    const std::uint32_t first = Crc32c(data.substr(0, split));
    EXPECT_EQ(Crc32c(data.substr(split), first), Crc32c(data)) << split;
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDisplacesValue) {
  for (std::uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu, 0xDEADBEEFu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

TEST(ValueCodecTest, RoundTripsEveryType) {
  const std::vector<Value> values = {
      Value::Null(),
      Value::Int(0),
      Value::Int(-1),
      Value::Int(std::int64_t{1} << 62),
      Value::Real(3.25),
      Value::Real(-0.0),
      Value::Str(""),
      Value::Str("pubkey-with-\0-byte" + std::string(1, '\0')),
      Value::Str(std::string(100, 'x')),
  };
  for (const Value& v : values) {
    std::string buf;
    EncodeValue(&buf, v);
    ByteReader in(buf);
    Value decoded;
    ASSERT_TRUE(DecodeValue(&in, &decoded)) << v.ToString();
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(in.exhausted());
  }
}

TEST(ValueCodecTest, TruncatedInputFailsCleanly) {
  std::string buf;
  EncodeValue(&buf, Value::Str("hello"));
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader in(buf.data(), cut);
    Value v;
    EXPECT_FALSE(DecodeValue(&in, &v)) << cut;
  }
}

TEST(ValueCodecTest, TupleRoundTripInternsIntoPool) {
  const Tuple original({Value::Int(7), Value::Str("pk"), Value::Real(1.5)});
  std::string buf;
  EncodeTupleValues(&buf, original);
  ByteReader in(buf);
  Tuple decoded;
  ASSERT_TRUE(DecodeTupleValues(&in, &decoded));
  // Interning canonicalizes, so the decoded tuple is id-for-id equal — not
  // merely value-equal — to the original.
  ASSERT_EQ(decoded.arity(), original.arity());
  for (std::size_t i = 0; i < original.arity(); ++i) {
    EXPECT_EQ(decoded.id_at(i), original.id_at(i)) << i;
  }
}

TEST(SchemaFingerprintTest, SeparatesSchemas) {
  const std::uint64_t base = SchemaFingerprint(MakeTestCatalog());
  EXPECT_EQ(base, SchemaFingerprint(MakeTestCatalog()));  // Deterministic.

  Catalog renamed;
  ASSERT_TRUE(renamed
                  .AddRelation(RelationSchema(
                      "R2", {Attribute{"a", ValueType::kInt, false},
                             Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  ASSERT_TRUE(renamed
                  .AddRelation(RelationSchema(
                      "S", {Attribute{"x", ValueType::kInt, false},
                            Attribute{"y", ValueType::kInt, true}}))
                  .ok());
  EXPECT_NE(SchemaFingerprint(renamed), base);

  Catalog retyped;
  ASSERT_TRUE(retyped
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kString, false},
                            Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  ASSERT_TRUE(retyped
                  .AddRelation(RelationSchema(
                      "S", {Attribute{"x", ValueType::kInt, false},
                            Attribute{"y", ValueType::kInt, true}}))
                  .ok());
  EXPECT_NE(SchemaFingerprint(retyped), base);
}

class MutationCodecTest : public ::testing::Test {
 protected:
  Catalog catalog_ = MakeTestCatalog();
};

TEST_F(MutationCodecTest, PendingAddedRoundTrips) {
  Transaction txn("P1");
  txn.Add("R", Tuple({Value::Int(1), Value::Int(2)}));
  txn.Add("S", Tuple({Value::Int(3), Value::Int(4)}));

  MutationEvent event;
  event.kind = MutationKind::kPendingAdded;
  event.seq = 17;
  event.version = 42;
  event.pending_id = 5;
  event.relation_ids = {0, 1};
  MutationPayload payload;
  payload.txn = &txn;

  std::string buf;
  ASSERT_TRUE(EncodeMutation(event, payload, catalog_, &buf).ok());
  StatusOr<PersistedMutation> decoded = DecodeMutation(buf, catalog_);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->event.kind, MutationKind::kPendingAdded);
  EXPECT_EQ(decoded->event.seq, 17u);
  EXPECT_EQ(decoded->event.version, 42u);
  EXPECT_EQ(decoded->event.pending_id, 5u);
  EXPECT_EQ(decoded->event.relation_ids, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(decoded->txn.label(), "P1");
  ASSERT_EQ(decoded->txn.size(), 2u);
  EXPECT_EQ(decoded->txn.items()[0].relation, "R");
  EXPECT_EQ(decoded->txn.items()[0].tuple,
            Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(decoded->txn.items()[1].relation, "S");
}

TEST_F(MutationCodecTest, CurrentInsertedRoundTrips) {
  const Tuple tuple({Value::Int(9), Value::Int(8)});
  MutationEvent event;
  event.kind = MutationKind::kCurrentInserted;
  event.seq = 3;
  event.version = 4;
  event.relation_ids = {0};
  event.tuple = tuple;

  std::string buf;
  ASSERT_TRUE(EncodeMutation(event, MutationPayload{}, catalog_, &buf).ok());
  StatusOr<PersistedMutation> decoded = DecodeMutation(buf, catalog_);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->relation_id, 0u);
  EXPECT_EQ(decoded->tuple, tuple);
}

TEST_F(MutationCodecTest, CurrentRemovedRoundTrips) {
  // Shares the tuple-payload branch with kCurrentInserted: a reorg's base
  // retraction must survive the WAL with its tuple intact.
  const Tuple tuple({Value::Int(7), Value::Int(6)});
  MutationEvent event;
  event.kind = MutationKind::kCurrentRemoved;
  event.seq = 11;
  event.version = 12;
  event.pending_id = kNoPendingId;
  event.relation_ids = {1};
  event.tuple = tuple;

  std::string buf;
  ASSERT_TRUE(EncodeMutation(event, MutationPayload{}, catalog_, &buf).ok());
  StatusOr<PersistedMutation> decoded = DecodeMutation(buf, catalog_);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->event.kind, MutationKind::kCurrentRemoved);
  EXPECT_EQ(decoded->event.seq, 11u);
  EXPECT_EQ(decoded->relation_id, 1u);
  EXPECT_EQ(decoded->tuple, tuple);

  // The relation is mandatory, exactly as for inserts: an event with none,
  // or with one the catalog lacks, is rejected.
  event.relation_ids = {};
  buf.clear();
  EXPECT_FALSE(EncodeMutation(event, MutationPayload{}, catalog_, &buf).ok());
  event.relation_ids = {catalog_.num_relations()};
  buf.clear();
  EXPECT_FALSE(EncodeMutation(event, MutationPayload{}, catalog_, &buf).ok());
}

TEST_F(MutationCodecTest, PendingRestoredRoundTrips) {
  // Event-only record: the restored transaction's tuples are recovered
  // from its original kPendingAdded record, not re-encoded here.
  MutationEvent event;
  event.kind = MutationKind::kPendingRestored;
  event.seq = 21;
  event.version = 22;
  event.pending_id = 3;
  event.relation_ids = {0, 1};
  std::string buf;
  ASSERT_TRUE(EncodeMutation(event, MutationPayload{}, catalog_, &buf).ok());
  StatusOr<PersistedMutation> decoded = DecodeMutation(buf, catalog_);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->event.kind, MutationKind::kPendingRestored);
  EXPECT_EQ(decoded->event.pending_id, 3u);
  EXPECT_EQ(decoded->event.relation_ids, (std::vector<std::size_t>{0, 1}));
}

TEST_F(MutationCodecTest, LifecycleEventsCarryNoPayload) {
  for (MutationKind kind :
       {MutationKind::kPendingApplied, MutationKind::kPendingDiscarded}) {
    MutationEvent event;
    event.kind = kind;
    event.seq = 1;
    event.version = 2;
    event.pending_id = 0;
    event.relation_ids = {1};
    std::string buf;
    ASSERT_TRUE(EncodeMutation(event, MutationPayload{}, catalog_, &buf).ok());
    StatusOr<PersistedMutation> decoded = DecodeMutation(buf, catalog_);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->event.kind, kind);
    EXPECT_EQ(decoded->event.pending_id, 0u);
  }
}

TEST_F(MutationCodecTest, MissingPayloadAndBadRelationAreRejected) {
  MutationEvent event;
  event.kind = MutationKind::kPendingAdded;
  std::string buf;
  EXPECT_FALSE(EncodeMutation(event, MutationPayload{}, catalog_, &buf).ok());

  Transaction txn("bad");
  txn.Add("NoSuchRelation", Tuple({Value::Int(1)}));
  MutationPayload payload;
  payload.txn = &txn;
  buf.clear();
  EXPECT_FALSE(EncodeMutation(event, payload, catalog_, &buf).ok());
}

TEST_F(MutationCodecTest, CorruptRecordsFailToDecode) {
  Transaction txn("P1");
  txn.Add("R", Tuple({Value::Int(1), Value::Int(2)}));
  MutationEvent event;
  event.kind = MutationKind::kPendingAdded;
  MutationPayload payload;
  payload.txn = &txn;
  std::string buf;
  ASSERT_TRUE(EncodeMutation(event, payload, catalog_, &buf).ok());

  // Every strict prefix fails (no partial decodes)...
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    EXPECT_FALSE(DecodeMutation(std::string_view(buf.data(), cut), catalog_)
                     .ok())
        << cut;
  }
  // ...and so do trailing bytes.
  EXPECT_FALSE(DecodeMutation(buf + "x", catalog_).ok());
}

/// Builds a database with every flavor of persisted state: base tuples,
/// live pending slots, applied and discarded slots, shared tuples.
BlockchainDatabase MakePopulatedDb() {
  auto db = BlockchainDatabase::Create(MakeTestCatalog(), ConstraintSet{});
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(db->InsertCurrent("R", Tuple({Value::Int(1), Value::Int(10)})).ok());
  EXPECT_TRUE(db->InsertCurrent("S", Tuple({Value::Int(2), Value::Int(20)})).ok());

  Transaction applied("applied");
  applied.Add("R", Tuple({Value::Int(3), Value::Int(30)}));
  applied.Add("S", Tuple({Value::Int(2), Value::Int(20)}));  // Shared tuple.
  auto applied_id = db->AddPending(applied);
  EXPECT_TRUE(applied_id.ok());

  Transaction discarded("discarded");
  discarded.Add("S", Tuple({Value::Int(4), Value::Int(40)}));
  auto discarded_id = db->AddPending(discarded);
  EXPECT_TRUE(discarded_id.ok());

  Transaction live("live");
  live.Add("R", Tuple({Value::Int(5), Value::Int(50)}));
  EXPECT_TRUE(db->AddPending(live).ok());

  EXPECT_TRUE(db->ApplyPending(*applied_id).ok());
  EXPECT_TRUE(db->DiscardPending(*discarded_id).ok());
  return std::move(*db);
}

TEST(SnapshotCodecTest, RoundTripsFullDatabaseImage) {
  BlockchainDatabase original = MakePopulatedDb();
  const std::string payload = EncodeSnapshot(original);

  auto restored = BlockchainDatabase::Create(MakeTestCatalog(), ConstraintSet{});
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(RestoreSnapshot(payload, original.version(),
                              original.mutations().end_seq(), &*restored)
                  .ok());
  ExpectEquivalent(original, *restored);

  // The restored database is live: the next mutation continues the
  // version/seq history exactly where the snapshot left off.
  const std::uint64_t version_before = restored->version();
  ASSERT_TRUE(
      restored->InsertCurrent("R", Tuple({Value::Int(99), Value::Int(9)})).ok());
  EXPECT_EQ(restored->version(), version_before + 1);
}

TEST(SnapshotCodecTest, DiscardedTuplesKeepTheirIdSlots) {
  // A tuple owned only by a discarded transaction stays stored (invisible)
  // so TupleIds after it keep their positions; the snapshot must preserve
  // that, including the empty owner list.
  BlockchainDatabase original = MakePopulatedDb();
  const Relation& s = original.database().relation(1);
  bool found_ownerless = false;
  for (TupleId id = 0; id < s.num_tuples(); ++id) {
    if (s.owners(id).empty()) found_ownerless = true;
  }
  ASSERT_TRUE(found_ownerless) << "test setup should leave an ownerless tuple";

  const std::string payload = EncodeSnapshot(original);
  auto restored = BlockchainDatabase::Create(MakeTestCatalog(), ConstraintSet{});
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(RestoreSnapshot(payload, original.version(),
                              original.mutations().end_seq(), &*restored)
                  .ok());
  ExpectEquivalent(original, *restored);
}

TEST(SnapshotCodecTest, CorruptPayloadsAreRejected) {
  BlockchainDatabase original = MakePopulatedDb();
  const std::string payload = EncodeSnapshot(original);

  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, payload.size() / 2,
                          payload.size() - 1}) {
    auto db = BlockchainDatabase::Create(MakeTestCatalog(), ConstraintSet{});
    ASSERT_TRUE(db.ok());
    EXPECT_FALSE(RestoreSnapshot(std::string_view(payload.data(), cut), 1, 1,
                                 &*db)
                     .ok())
        << cut;
  }

  auto db = BlockchainDatabase::Create(MakeTestCatalog(), ConstraintSet{});
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(RestoreSnapshot(payload + "junk", 1, 1, &*db).ok());
}

// --- Hostile counts -----------------------------------------------------
//
// Each decoder count that sizes an allocation goes through
// ByteReader::ReadCount, so a count larger than the rest of the record could
// hold fails with a Status instead of reserving (and aborting on) gigabytes.
// Every payload below travels in a record whose checksum is valid, so the
// decoder — not the framing — is what must reject it.

/// `payload` written as one WAL record and scanned back checksum-verified.
std::string ThroughWal(const std::string& payload) {
  storage_test::ScratchDir dir;
  const std::string path = dir.Sub("wal");
  auto writer = storage::WalWriter::Open(path, storage::SyncPolicy::kGroup);
  EXPECT_TRUE(writer.ok()) << writer.status();
  EXPECT_TRUE(writer->Append(payload).ok());
  EXPECT_TRUE(writer->Close().ok());
  auto scan = storage::ScanWal(path);
  EXPECT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_FALSE(scan->tail_corrupt);
  return scan->records.empty() ? std::string() : scan->records[0];
}

/// `payload` written as a checkpoint segment and read back CRC-validated.
std::string ThroughSegment(const std::string& payload) {
  storage_test::ScratchDir dir;
  const std::string path = dir.Sub("segment");
  storage::SegmentHeader header;
  header.schema_fingerprint = SchemaFingerprint(MakeTestCatalog());
  header.payload_size = payload.size();
  EXPECT_TRUE(storage::WriteSegment(path, header, payload).ok());
  auto contents = storage::ReadSegment(path);
  EXPECT_TRUE(contents.ok()) << contents.status();
  return contents.ok() ? contents->payload : std::string();
}

/// Restores `payload` (after a segment round trip) into a fresh database.
Status RestoreHostile(const std::string& payload) {
  auto db = BlockchainDatabase::Create(MakeTestCatalog(), ConstraintSet{});
  EXPECT_TRUE(db.ok());
  return RestoreSnapshot(ThroughSegment(payload), 1, 1, &*db);
}

constexpr std::uint32_t kHugeCount = 0xFFFFFFFFu;

TEST(HostileCountTest, WalEventRelationCountIsRejected) {
  std::string payload;
  AppendU8(&payload, 0);   // kind
  AppendU64(&payload, 1);  // seq
  AppendU64(&payload, 1);  // version
  AppendU64(&payload, 0);  // pending id
  AppendU32(&payload, kHugeCount);  // relation ids that follow
  auto decoded = DecodeMutation(ThroughWal(payload), MakeTestCatalog());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(HostileCountTest, SnapshotDictionarySizeIsRejected) {
  std::string payload;
  AppendU32(&payload, kHugeCount);
  const Status status = RestoreHostile(payload);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(HostileCountTest, SnapshotTupleCountIsRejected) {
  std::string payload;
  AppendU32(&payload, 0);  // Empty dictionary.
  AppendU32(&payload, 2);  // R and S.
  AppendU64(&payload, std::uint64_t{1} << 60);
  const Status status = RestoreHostile(payload);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(HostileCountTest, SnapshotOwnerCountIsRejected) {
  std::string payload;
  AppendU32(&payload, 0);  // Empty dictionary.
  AppendU32(&payload, 2);  // R and S.
  AppendU64(&payload, 1);  // One tuple record in R...
  AppendU16(&payload, 0);  // ...of arity 0...
  AppendU16(&payload, 0xFFFF);  // ...claiming 65535 owners and holding none.
  const Status status = RestoreHostile(payload);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(HostileCountTest, SnapshotPendingCountIsRejected) {
  std::string payload;
  AppendU32(&payload, 0);  // Empty dictionary.
  AppendU32(&payload, 2);  // R and S, both empty.
  AppendU64(&payload, 0);
  AppendU64(&payload, 0);
  AppendU32(&payload, kHugeCount);
  const Status status = RestoreHostile(payload);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bcdb
