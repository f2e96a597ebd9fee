#include "storage/record_codec.h"

#include <span>
#include <unordered_map>
#include <vector>

#include "relational/value_pool.h"
#include "util/hash.h"

namespace bcdb {
namespace storage {

namespace {

/// Sentinel for "no relation id" (kCurrentInserted with an unresolvable
/// relation never reaches the codec — EncodeMutation rejects it first).
constexpr std::uint32_t kNoRelationId = ~std::uint32_t{0};

void MixU64(std::uint64_t* state, std::uint64_t v) {
  *state = HashMix64(*state ^ HashMix64(v + 0x9e3779b97f4a7c15ULL));
}

void MixString(std::uint64_t* state, std::string_view s) {
  MixU64(state, s.size());
  for (char c : s) MixU64(state, static_cast<unsigned char>(c));
}

/// First-use-ordered value dictionary for segment payloads.
class ValueDictBuilder {
 public:
  std::uint32_t DiskId(ValueId id) {
    auto it = disk_ids_.find(id);
    if (it != disk_ids_.end()) return it->second;
    const std::uint32_t disk_id = static_cast<std::uint32_t>(order_.size());
    disk_ids_.emplace(id, disk_id);
    order_.push_back(id);
    return disk_id;
  }

  void AddTuple(const Tuple& t) {
    for (std::size_t i = 0; i < t.arity(); ++i) DiskId(t.id_at(i));
  }

  void Encode(std::string* out) const {
    const ValuePool& pool = ValuePool::Global();
    AppendU32(out, static_cast<std::uint32_t>(order_.size()));
    for (ValueId id : order_) EncodeValue(out, pool.value(id));
  }

 private:
  std::unordered_map<ValueId, std::uint32_t, IdHash> disk_ids_;
  std::vector<ValueId> order_;
};

void EncodeDictTuple(std::string* out, const Tuple& t, ValueDictBuilder* dict) {
  AppendU16(out, static_cast<std::uint16_t>(t.arity()));
  for (std::size_t i = 0; i < t.arity(); ++i) {
    AppendU32(out, dict->DiskId(t.id_at(i)));
  }
}

bool DecodeDictTuple(ByteReader* in, const std::vector<ValueId>& dict,
                     Tuple* t) {
  std::uint16_t arity;
  if (!in->ReadU16(&arity)) return false;
  // Gather in-memory ids through the dictionary; the tuple is built from
  // ids directly (FromIds), no per-value re-interning.
  ValueId ids[Tuple::kInlineArity];
  std::vector<ValueId> heap_ids;
  ValueId* slot = ids;
  if (arity > Tuple::kInlineArity) {
    heap_ids.resize(arity);
    slot = heap_ids.data();
  }
  for (std::uint16_t i = 0; i < arity; ++i) {
    std::uint32_t disk_id;
    if (!in->ReadU32(&disk_id) || disk_id >= dict.size()) return false;
    slot[i] = dict[disk_id];
  }
  *t = Tuple::FromIds(slot, arity);
  return true;
}

void EncodeEvent(std::string* out, const MutationEvent& event) {
  AppendU8(out, static_cast<std::uint8_t>(event.kind));
  AppendU64(out, event.seq);
  AppendU64(out, event.version);
  AppendU64(out, static_cast<std::uint64_t>(event.pending_id));
  AppendU32(out, static_cast<std::uint32_t>(event.relation_ids.size()));
  for (std::size_t rid : event.relation_ids) {
    AppendU32(out, static_cast<std::uint32_t>(rid));
  }
}

bool DecodeEvent(ByteReader* in, MutationEvent* event) {
  std::uint8_t kind;
  std::uint64_t pending_id;
  std::uint32_t num_relations;
  if (!in->ReadU8(&kind) || kind >= kNumMutationKinds) return false;
  event->kind = static_cast<MutationKind>(kind);
  if (!in->ReadU64(&event->seq) || !in->ReadU64(&event->version) ||
      !in->ReadU64(&pending_id) ||
      !in->ReadCount(/*min_elem_bytes=*/4, &num_relations)) {
    return false;
  }
  event->pending_id = static_cast<PendingId>(pending_id);
  event->relation_ids.clear();
  event->relation_ids.reserve(num_relations);
  for (std::uint32_t i = 0; i < num_relations; ++i) {
    std::uint32_t rid;
    if (!in->ReadU32(&rid)) return false;
    event->relation_ids.push_back(rid);
  }
  return true;
}

}  // namespace

std::uint64_t SchemaFingerprint(const Catalog& catalog) {
  std::uint64_t state = 0x42434442u;  // "BCDB"
  MixU64(&state, catalog.num_relations());
  for (std::size_t r = 0; r < catalog.num_relations(); ++r) {
    const RelationSchema& schema = catalog.schema(r);
    MixString(&state, schema.name());
    MixU64(&state, schema.arity());
    for (const Attribute& attr : schema.attributes()) {
      MixString(&state, attr.name);
      MixU64(&state, static_cast<std::uint64_t>(attr.type));
      MixU64(&state, attr.non_negative ? 1 : 0);
    }
  }
  return state;
}

void EncodeValue(std::string* out, const Value& v) {
  AppendU8(out, static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      AppendI64(out, v.AsInt());
      break;
    case ValueType::kReal:
      AppendF64(out, v.AsReal());
      break;
    case ValueType::kString:
      AppendBytes(out, v.AsString());
      break;
  }
}

bool DecodeValue(ByteReader* in, Value* v) {
  std::uint8_t tag;
  if (!in->ReadU8(&tag)) return false;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *v = Value::Null();
      return true;
    case ValueType::kInt: {
      std::int64_t i;
      if (!in->ReadI64(&i)) return false;
      *v = Value::Int(i);
      return true;
    }
    case ValueType::kReal: {
      double d;
      if (!in->ReadF64(&d)) return false;
      *v = Value::Real(d);
      return true;
    }
    case ValueType::kString: {
      std::string s;
      if (!in->ReadString(&s)) return false;
      *v = Value::Str(std::move(s));
      return true;
    }
  }
  return false;
}

void EncodeTupleValues(std::string* out, const Tuple& t) {
  AppendU16(out, static_cast<std::uint16_t>(t.arity()));
  for (std::size_t i = 0; i < t.arity(); ++i) EncodeValue(out, t.at(i));
}

bool DecodeTupleValues(ByteReader* in, Tuple* t) {
  std::uint16_t arity;
  if (!in->ReadU16(&arity)) return false;
  std::vector<Value> values(arity);
  for (std::uint16_t i = 0; i < arity; ++i) {
    if (!DecodeValue(in, &values[i])) return false;
  }
  *t = Tuple(values);
  return true;
}

Status EncodeMutation(const MutationEvent& event,
                      const MutationPayload& payload, const Catalog& catalog,
                      std::string* out) {
  EncodeEvent(out, event);
  switch (event.kind) {
    case MutationKind::kPendingAdded: {
      if (payload.txn == nullptr) {
        return Status::InvalidArgument(
            "kPendingAdded mutation carries no transaction payload");
      }
      AppendBytes(out, payload.txn->label());
      AppendU32(out, static_cast<std::uint32_t>(payload.txn->size()));
      for (const Transaction::Item& item : payload.txn->items()) {
        StatusOr<std::size_t> rid = catalog.RelationId(item.relation);
        if (!rid.ok()) return rid.status();
        AppendU32(out, static_cast<std::uint32_t>(*rid));
        EncodeTupleValues(out, item.tuple);
      }
      return Status::OK();
    }
    case MutationKind::kCurrentInserted:
    case MutationKind::kCurrentRemoved: {
      // Both base-state kinds are self-contained: relation plus full tuple
      // values, so replay never depends on surviving store contents.
      if (event.relation_ids.empty() ||
          event.relation_ids.front() >= catalog.num_relations()) {
        return Status::InvalidArgument(
            "base-state mutation carries no resolvable relation");
      }
      AppendU32(out, static_cast<std::uint32_t>(event.relation_ids.front()));
      EncodeTupleValues(out, event.tuple);
      return Status::OK();
    }
    case MutationKind::kPendingApplied:
    case MutationKind::kPendingDiscarded:
    case MutationKind::kPendingRestored:
      return Status::OK();  // The event alone replays.
  }
  return Status::Internal("unknown mutation kind");
}

StatusOr<PersistedMutation> DecodeMutation(std::string_view payload,
                                           const Catalog& catalog) {
  ByteReader in(payload);
  PersistedMutation out;
  if (!DecodeEvent(&in, &out.event)) {
    return Status::InvalidArgument("mutation record: truncated event header");
  }
  for (std::size_t rid : out.event.relation_ids) {
    if (rid >= catalog.num_relations()) {
      return Status::InvalidArgument(
          "mutation record references unknown relation id");
    }
  }
  switch (out.event.kind) {
    case MutationKind::kPendingAdded: {
      std::string label;
      std::uint32_t num_items;
      if (!in.ReadString(&label) || !in.ReadU32(&num_items)) {
        return Status::InvalidArgument(
            "mutation record: truncated transaction payload");
      }
      out.txn = Transaction(std::move(label));
      for (std::uint32_t i = 0; i < num_items; ++i) {
        std::uint32_t rid;
        Tuple tuple;
        if (!in.ReadU32(&rid) || rid >= catalog.num_relations() ||
            !DecodeTupleValues(&in, &tuple)) {
          return Status::InvalidArgument(
              "mutation record: malformed transaction item");
        }
        out.txn.Add(catalog.schema(rid).name(), std::move(tuple));
      }
      break;
    }
    case MutationKind::kCurrentInserted:
    case MutationKind::kCurrentRemoved: {
      std::uint32_t rid;
      if (!in.ReadU32(&rid) || rid >= catalog.num_relations() ||
          !DecodeTupleValues(&in, &out.tuple)) {
        return Status::InvalidArgument(
            "mutation record: malformed base-tuple payload");
      }
      out.relation_id = rid;
      break;
    }
    case MutationKind::kPendingApplied:
    case MutationKind::kPendingDiscarded:
    case MutationKind::kPendingRestored:
      break;
  }
  if (!in.exhausted()) {
    return Status::InvalidArgument("mutation record: trailing bytes");
  }
  return out;
}

std::string EncodeSnapshot(const BlockchainDatabase& db) {
  const Database& store = db.database();
  // Pass 1: the dictionary must be complete before any record that
  // references it is written, and it is encoded first in the payload — so
  // collect ids over everything up front.
  ValueDictBuilder dict;
  for (std::size_t r = 0; r < store.num_relations(); ++r) {
    const Relation& rel = store.relation(r);
    for (TupleId id = 0; id < rel.num_tuples(); ++id) dict.AddTuple(rel.tuple(id));
  }
  for (PendingId id = 0; id < db.num_pending(); ++id) {
    for (const Transaction::Item& item : db.pending(id).items()) {
      dict.AddTuple(item.tuple);
    }
  }

  std::string out;
  dict.Encode(&out);

  // Relation contents: packed records in TupleId order — fixed-width
  // header (arity, owner count) followed by fixed-width dictionary-id and
  // owner cells, so a record's size is known from its first four bytes.
  AppendU32(&out, static_cast<std::uint32_t>(store.num_relations()));
  for (std::size_t r = 0; r < store.num_relations(); ++r) {
    const Relation& rel = store.relation(r);
    AppendU64(&out, rel.num_tuples());
    for (TupleId id = 0; id < rel.num_tuples(); ++id) {
      const Tuple& tuple = rel.tuple(id);
      const std::span<const TupleOwner> owners = rel.owners(id);
      AppendU16(&out, static_cast<std::uint16_t>(tuple.arity()));
      AppendU16(&out, static_cast<std::uint16_t>(owners.size()));
      for (std::size_t i = 0; i < tuple.arity(); ++i) {
        AppendU32(&out, dict.DiskId(tuple.id_at(i)));
      }
      for (TupleOwner owner : owners) AppendI32(&out, owner);
    }
  }

  // Pending slots in id order, each in its final lifecycle state.
  AppendU32(&out, static_cast<std::uint32_t>(db.num_pending()));
  for (PendingId id = 0; id < db.num_pending(); ++id) {
    const Transaction& txn = db.pending(id);
    AppendU8(&out, static_cast<std::uint8_t>(db.pending_state(id)));
    AppendBytes(&out, txn.label());
    AppendU32(&out, static_cast<std::uint32_t>(txn.size()));
    for (const Transaction::Item& item : txn.items()) {
      // Pending items were validated against the catalog at AddPending.
      StatusOr<std::size_t> rid = store.RelationId(item.relation);
      AppendU32(&out, rid.ok() ? static_cast<std::uint32_t>(*rid)
                               : kNoRelationId);
      EncodeDictTuple(&out, item.tuple, &dict);
    }
    const std::vector<std::size_t>& rel_ids = db.PendingRelations(id);
    AppendU32(&out, static_cast<std::uint32_t>(rel_ids.size()));
    for (std::size_t rid : rel_ids) {
      AppendU32(&out, static_cast<std::uint32_t>(rid));
    }
  }
  return out;
}

Status RestoreSnapshot(std::string_view payload, std::uint64_t db_version,
                       std::uint64_t end_seq, BlockchainDatabase* db) {
  Database& store = db->database();
  ByteReader in(payload);

  // Dictionary: intern every persisted value into the process-wide pool,
  // mapping dense disk ids to whatever in-memory ids this process uses.
  std::uint32_t dict_size;
  if (!in.ReadCount(/*min_elem_bytes=*/1, &dict_size)) {
    return Status::InvalidArgument("snapshot: truncated dictionary header");
  }
  std::vector<ValueId> dict;
  dict.reserve(dict_size);
  ValuePool& pool = ValuePool::Global();
  for (std::uint32_t i = 0; i < dict_size; ++i) {
    Value v;
    if (!DecodeValue(&in, &v)) {
      return Status::InvalidArgument("snapshot: truncated dictionary value");
    }
    dict.push_back(pool.Intern(v));
  }

  // Decode relation sections into memory before touching the database, so
  // a malformed payload leaves it untouched (the caller discards on error
  // anyway, but cheap decode-then-apply keeps the error paths simple).
  std::uint32_t num_relations;
  if (!in.ReadU32(&num_relations) || num_relations != store.num_relations()) {
    return Status::InvalidArgument(
        "snapshot relation count does not match the catalog");
  }
  struct TupleRecord {
    Tuple tuple;
    std::vector<TupleOwner> owners;
  };
  std::vector<std::vector<TupleRecord>> relations(num_relations);
  for (std::uint32_t r = 0; r < num_relations; ++r) {
    // A tuple record is at least its arity and owner-count fields.
    std::uint64_t num_tuples;
    if (!in.ReadCount(/*min_elem_bytes=*/4, &num_tuples)) {
      return Status::InvalidArgument("snapshot: truncated relation header");
    }
    relations[r].reserve(num_tuples);
    for (std::uint64_t t = 0; t < num_tuples; ++t) {
      std::uint16_t arity_probe;
      std::uint16_t num_owners;
      // Peek arity via the shared tuple decoder: re-frame manually since
      // owners follow the id cells.
      if (!in.ReadU16(&arity_probe) ||
          !in.ReadCount(/*min_elem_bytes=*/4, &num_owners)) {
        return Status::InvalidArgument("snapshot: truncated tuple record");
      }
      TupleRecord record;
      std::vector<ValueId> ids(arity_probe);
      for (std::uint16_t i = 0; i < arity_probe; ++i) {
        std::uint32_t disk_id;
        if (!in.ReadU32(&disk_id) || disk_id >= dict.size()) {
          return Status::InvalidArgument("snapshot: bad dictionary reference");
        }
        ids[i] = dict[disk_id];
      }
      record.tuple = Tuple::FromIds(ids.data(), ids.size());
      record.owners.resize(num_owners);
      for (std::uint16_t i = 0; i < num_owners; ++i) {
        if (!in.ReadI32(&record.owners[i])) {
          return Status::InvalidArgument("snapshot: truncated owner list");
        }
      }
      relations[r].push_back(std::move(record));
    }
  }

  struct PendingRecord {
    Transaction txn;
    BlockchainDatabase::PendingState state;
    std::vector<std::size_t> relation_ids;
  };
  // A pending slot is at least its state, label length, item count and
  // footprint count fields.
  std::uint32_t num_pending;
  if (!in.ReadCount(/*min_elem_bytes=*/13, &num_pending)) {
    return Status::InvalidArgument("snapshot: truncated pending header");
  }
  std::vector<PendingRecord> pending;
  pending.reserve(num_pending);
  for (std::uint32_t p = 0; p < num_pending; ++p) {
    PendingRecord record;
    std::uint8_t state;
    std::string label;
    std::uint32_t num_items;
    if (!in.ReadU8(&state) || state > 2 || !in.ReadString(&label) ||
        !in.ReadU32(&num_items)) {
      return Status::InvalidArgument("snapshot: truncated pending slot");
    }
    record.state = static_cast<BlockchainDatabase::PendingState>(state);
    record.txn = Transaction(std::move(label));
    for (std::uint32_t i = 0; i < num_items; ++i) {
      std::uint32_t rid;
      Tuple tuple;
      if (!in.ReadU32(&rid) || rid >= num_relations ||
          !DecodeDictTuple(&in, dict, &tuple)) {
        return Status::InvalidArgument("snapshot: malformed pending item");
      }
      record.txn.Add(store.catalog().schema(rid).name(), std::move(tuple));
    }
    std::uint32_t num_rel_ids;
    if (!in.ReadU32(&num_rel_ids)) {
      return Status::InvalidArgument("snapshot: truncated pending footprint");
    }
    for (std::uint32_t i = 0; i < num_rel_ids; ++i) {
      std::uint32_t rid;
      if (!in.ReadU32(&rid) || rid >= num_relations) {
        return Status::InvalidArgument("snapshot: bad pending footprint id");
      }
      record.relation_ids.push_back(rid);
    }
    pending.push_back(std::move(record));
  }
  if (!in.exhausted()) {
    return Status::InvalidArgument("snapshot: trailing bytes");
  }

  // Apply: pending slots first (re-registering owner tags 0..n-1 in id
  // order), then relation contents whose owner lists may reference those
  // tags, then the clock.
  for (PendingRecord& record : pending) {
    BCDB_RETURN_IF_ERROR(db->RestorePendingSlot(std::move(record.txn),
                                                record.state,
                                                std::move(record.relation_ids)));
  }
  for (std::uint32_t r = 0; r < num_relations; ++r) {
    for (TupleRecord& record : relations[r]) {
      for (TupleOwner owner : record.owners) {
        if (owner != kBaseOwner &&
            (owner < 0 || static_cast<std::size_t>(owner) >= num_pending)) {
          return Status::InvalidArgument(
              "snapshot: tuple owner references unknown pending slot");
        }
      }
      BCDB_RETURN_IF_ERROR(store.relation(r).RestoreTuple(
          std::move(record.tuple), record.owners));
    }
  }
  return db->RestoreClock(db_version, end_seq);
}

}  // namespace storage
}  // namespace bcdb
