#ifndef BCDB_STORAGE_RECORD_CODEC_H_
#define BCDB_STORAGE_RECORD_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/blockchain_db.h"
#include "core/mutation_log.h"
#include "core/transaction.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "util/bytes.h"
#include "util/status.h"

namespace bcdb {
namespace storage {

/// Wire encodings of the durable store, shared by the WAL (self-contained
/// per-record coding) and checkpoint segments (dictionary coding).
///
/// In-memory `ValueId`s are dense per *process* — the global ValuePool
/// assigns them in first-intern order — so they are never written to disk.
/// WAL records inline full values; segments carry a value dictionary (disk
/// ids dense in first-use order) that the reader interns back into the
/// ValuePool, rebuilding tuples id-for-id equivalent to the persisted image
/// regardless of what else the recovering process interned first.

/// Order-sensitive digest of a catalog: relation names, arities, attribute
/// names/types/non-negativity. A segment written under one schema refuses to
/// rehydrate into another.
std::uint64_t SchemaFingerprint(const Catalog& catalog);

/// Self-contained value coding: u8 type tag + payload.
void EncodeValue(std::string* out, const Value& v);
bool DecodeValue(ByteReader* in, Value* v);

/// Self-contained tuple coding: u16 arity + values. Decoding interns into
/// the global ValuePool.
void EncodeTupleValues(std::string* out, const Tuple& t);
bool DecodeTupleValues(ByteReader* in, Tuple* t);

/// One durable WAL record: the MutationEvent plus the payload needed to
/// replay it against a recovered database through the public mutation API.
struct PersistedMutation {
  MutationEvent event;
  /// kPendingAdded: the registered transaction (relation names resolved
  /// from the catalog).
  Transaction txn;
  /// kCurrentInserted / kCurrentRemoved: the affected tuple and relation.
  std::size_t relation_id = ~std::size_t{0};
  Tuple tuple;
};

/// Encodes one mutation (appending to `*out`). Fails if a payload
/// transaction, or a base-state event, references no relation of
/// `catalog`.
Status EncodeMutation(const MutationEvent& event,
                      const MutationPayload& payload, const Catalog& catalog,
                      std::string* out);

/// Inverse of EncodeMutation over one framed WAL payload.
StatusOr<PersistedMutation> DecodeMutation(std::string_view payload,
                                           const Catalog& catalog);

/// Serializes the full database image — value dictionary, per-relation
/// tuple records with exact owner lists in TupleId order, pending slots in
/// id order — as a checkpoint-segment payload. The version / end-seq clock
/// travels in the segment header, not the payload.
std::string EncodeSnapshot(const BlockchainDatabase& db);

/// Rehydrates `payload` into `db`, which must be freshly created over the
/// same catalog (fingerprint-checked by the segment reader) and never
/// mutated. Restores pending slots first (owner tags re-registered in id
/// order), then relation contents, then the version/seq clock.
Status RestoreSnapshot(std::string_view payload, std::uint64_t db_version,
                       std::uint64_t end_seq, BlockchainDatabase* db);

}  // namespace storage
}  // namespace bcdb

#endif  // BCDB_STORAGE_RECORD_CODEC_H_
