#ifndef BCDB_UTIL_FLAT_TABLE_H_
#define BCDB_UTIL_FLAT_TABLE_H_

/// Flat open-addressing hash tables for the DCSat hot paths.
///
/// Every hot container in the checker keys on dense 32-bit interned ids
/// (ValueId sequences inside Tuple/ProjectionKey, TupleOwner, union-find
/// roots). `std::unordered_map` stores each entry in its own heap node, so a
/// probe is hash → bucket head → pointer chase (a guaranteed cache miss per
/// element) and growth rehashes through the allocator. The tables here are
/// SwissTable-style instead:
///
///   * one contiguous allocation: a 1-byte control-tag array plus a flat
///     slot array — small keys *and* small values live inline in the slot;
///   * group probing: the control byte holds a 7-bit hash tag; lookups scan
///     `kGroupWidth` tags per step with SWAR 64-bit word tricks (or SSE2
///     `_mm_cmpeq_epi8` when available) and only touch a slot on a tag match;
///   * power-of-two capacity with a full-avalanche multiplicative mixer
///     (`HashMix64`) applied on top of the caller's hasher — identity-hashed
///     dense ids would otherwise cluster catastrophically;
///   * tombstone-free erase: backward-shift deletion restores the pure
///     linear-probing invariant, so probe sequences never lengthen with
///     churn (the distinct-set and fd-bucket workloads erase constantly);
///   * heterogeneous lookup throughout: any probe type the Hash/Eq functor
///     pair accepts works (`ProjectionKey` probes against `Tuple` keys — the
///     transparent contract the id-keyed substrate established).
///
/// `FlatIdMap` / `FlatIdSet` are the aliases the engine uses. Code must not
/// depend on their iteration order; every consumer either canonicalizes
/// (GroupComponents) or is order-insensitive.
///
/// Not thread-safe for writes. Concurrent read-only probes of a quiescent
/// table are safe (no mutable state on the lookup path).

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

#include "util/hash.h"

// SSE2 group probing: 16 control bytes per compare via _mm_cmpeq_epi8;
// targets without SSE2 take the portable SWAR path.
#if defined(__SSE2__)
#define BCDB_FLAT_TABLE_SSE2 1
#include <emmintrin.h>
#endif

namespace bcdb {
namespace flat_internal {

/// Control byte values. A full slot stores the hash's 7-bit tag (high bit
/// clear); `kEmpty` is the only value with the high bit set — there are no
/// tombstones, so "high bit set" ⟺ "slot free" and an empty byte in a probe
/// group terminates the scan.
inline constexpr std::uint8_t kEmpty = 0x80;

#ifdef BCDB_FLAT_TABLE_SSE2
inline constexpr std::size_t kGroupWidth = 16;

/// One probe group: 16 control bytes, compared in parallel.
struct Group {
  __m128i ctrl;

  explicit Group(const std::uint8_t* p)
      : ctrl(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))) {}

  /// Bit i set ⟺ byte i holds `tag`. Exact (no false positives).
  std::uint32_t Match(std::uint8_t tag) const {
    return static_cast<std::uint32_t>(_mm_movemask_epi8(
        _mm_cmpeq_epi8(ctrl, _mm_set1_epi8(static_cast<char>(tag)))));
  }

  /// Bit i set ⟺ byte i is empty (the only high-bit value).
  std::uint32_t MatchEmpty() const {
    return static_cast<std::uint32_t>(_mm_movemask_epi8(ctrl));
  }

  static std::size_t BitToOffset(std::uint32_t mask) {
    return static_cast<std::size_t>(std::countr_zero(mask));
  }
  static std::uint32_t ClearLowest(std::uint32_t mask) {
    return mask & (mask - 1);
  }
};
#else
inline constexpr std::size_t kGroupWidth = 8;

/// One probe group: 8 control bytes in a 64-bit word, matched with the
/// classic SWAR zero-byte trick. Match() may report false positives on full
/// slots (resolved by the key compare) but never false negatives, and the
/// empty mask is exact because only kEmpty has the high bit set.
struct Group {
  std::uint64_t ctrl;

  explicit Group(const std::uint8_t* p) { std::memcpy(&ctrl, p, 8); }

  std::uint64_t Match(std::uint8_t tag) const {
    constexpr std::uint64_t kLsbs = 0x0101010101010101ULL;
    constexpr std::uint64_t kMsbs = 0x8080808080808080ULL;
    const std::uint64_t x = ctrl ^ (kLsbs * tag);
    // Borrow propagation can flag a byte *after* a true match; masking out
    // empty slots keeps those false positives away from destroyed slots.
    return (x - kLsbs) & ~x & kMsbs & ~(ctrl & kMsbs);
  }

  std::uint64_t MatchEmpty() const {
    return ctrl & 0x8080808080808080ULL;
  }

  static std::size_t BitToOffset(std::uint64_t mask) {
    return static_cast<std::size_t>(std::countr_zero(mask)) >> 3;
  }
  static std::uint64_t ClearLowest(std::uint64_t mask) {
    return mask & (mask - 1);
  }
};
#endif

/// The core open-addressing table. `Slot` is the stored element
/// (`std::pair<K, V>` for maps, `K` for sets); `GetKey` projects a slot to
/// its key; `Hash`/`Eq` may be transparent (templated call operators) for
/// heterogeneous probes.
template <typename Slot, typename GetKey, typename Hash, typename Eq>
class RawFlatTable {
 public:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  RawFlatTable() = default;

  RawFlatTable(const RawFlatTable& other) { CopyFrom(other); }
  RawFlatTable(RawFlatTable&& other) noexcept { StealFrom(other); }
  RawFlatTable& operator=(const RawFlatTable& other) {
    if (this != &other) {
      Destroy();
      CopyFrom(other);
    }
    return *this;
  }
  RawFlatTable& operator=(RawFlatTable&& other) noexcept {
    if (this != &other) {
      Destroy();
      StealFrom(other);
    }
    return *this;
  }
  ~RawFlatTable() { Destroy(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  void clear() {
    if (capacity_ == 0) return;
    if (size_ != 0) {
      for (std::size_t i = 0; i < capacity_; ++i) {
        if (IsFull(i)) slots_[i].~Slot();
      }
      size_ = 0;
    }
    std::memset(ctrl_, kEmpty, capacity_ + kGroupWidth);
    growth_left_ = MaxSize(capacity_);
  }

  /// Pre-sizes so `n` elements fit without another rehash.
  void reserve(std::size_t n) {
    const std::size_t target = CapacityFor(n);
    if (target > capacity_) Rehash(target);
  }

  /// Index of the slot holding a key equal to `key`, or npos.
  template <typename K2>
  std::size_t FindIndex(const K2& key) const {
    if (capacity_ == 0) return npos;
    const std::uint64_t mixed = MixedHash(key);
    const std::uint8_t tag = H2(mixed);
    const std::size_t mask = capacity_ - 1;
    std::size_t group = mixed & mask;
    while (true) {
      const Group g(ctrl_ + group);
      for (auto m = g.Match(tag); m != 0; m = Group::ClearLowest(m)) {
        const std::size_t idx = (group + Group::BitToOffset(m)) & mask;
        if (eq_(GetKey{}(slots_[idx]), key)) return idx;
      }
      if (g.MatchEmpty() != 0) return npos;
      group = (group + kGroupWidth) & mask;
    }
  }

  /// Finds `key`, or claims the slot where it belongs. Returns
  /// {index, inserted}; on inserted the caller must construct the slot —
  /// the control byte is already set and size already counted.
  template <typename K2>
  std::pair<std::size_t, bool> FindOrPrepareInsert(const K2& key) {
    if (capacity_ == 0) Rehash(kMinCapacity);
    const std::uint64_t mixed = MixedHash(key);
    const std::uint8_t tag = H2(mixed);
    std::size_t mask = capacity_ - 1;
    std::size_t group = mixed & mask;
    std::size_t insert_at = npos;
    while (true) {
      const Group g(ctrl_ + group);
      for (auto m = g.Match(tag); m != 0; m = Group::ClearLowest(m)) {
        const std::size_t idx = (group + Group::BitToOffset(m)) & mask;
        if (eq_(GetKey{}(slots_[idx]), key)) return {idx, false};
      }
      if (const auto e = g.MatchEmpty(); e != 0) {
        insert_at = (group + Group::BitToOffset(e)) & mask;
        break;
      }
      group = (group + kGroupWidth) & mask;
    }
    if (growth_left_ == 0) {
      Rehash(capacity_ * 2);
      insert_at = FindFirstEmpty(mixed);
    }
    SetCtrl(insert_at, tag);
    ++size_;
    --growth_left_;
    return {insert_at, true};
  }

  /// Backward-shift erase: closes the hole by walking the cluster and
  /// pulling back every element whose home position allows it, preserving
  /// the "no key is separated from its home slot by an empty slot"
  /// invariant that lets lookups stop at the first empty byte.
  void EraseAt(std::size_t i) {
    assert(IsFull(i));
    const std::size_t mask = capacity_ - 1;
    slots_[i].~Slot();
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (!IsFull(j)) break;
      const std::size_t home =
          static_cast<std::size_t>(MixedHash(GetKey{}(slots_[j]))) & mask;
      // Movable iff `home` is cyclically at or before the hole — i.e. the
      // hole lies within the element's probe path.
      if (((j - home) & mask) >= ((j - i) & mask)) {
        ::new (static_cast<void*>(slots_ + i)) Slot(std::move(slots_[j]));
        slots_[j].~Slot();
        SetCtrl(i, ctrl_[j]);
        i = j;
      }
    }
    SetCtrl(i, kEmpty);
    --size_;
    ++growth_left_;
  }

  bool IsFull(std::size_t i) const { return (ctrl_[i] & 0x80) == 0; }

  Slot* slots() { return slots_; }
  const Slot* slots() const { return slots_; }

  std::size_t NextFull(std::size_t i) const {
    for (; i < capacity_; ++i) {
      if (IsFull(i)) return i;
    }
    return capacity_;
  }

 private:
  template <typename K2>
  std::uint64_t MixedHash(const K2& key) const {
    return HashMix64(static_cast<std::uint64_t>(hash_(key)));
  }

  static std::uint8_t H2(std::uint64_t mixed) {
    return static_cast<std::uint8_t>(mixed >> 57);  // Top 7 bits.
  }

  static std::size_t MaxSize(std::size_t capacity) {
    return capacity - capacity / 8;  // 7/8 max load factor.
  }

  static std::size_t CapacityFor(std::size_t n) {
    std::size_t capacity = kMinCapacity;
    while (MaxSize(capacity) < n) capacity *= 2;
    return capacity;
  }

  void SetCtrl(std::size_t i, std::uint8_t v) {
    ctrl_[i] = v;
    // The first kGroupWidth bytes are mirrored past the end so unaligned
    // group loads never wrap.
    if (i < kGroupWidth) ctrl_[i + capacity_] = v;
  }

  std::size_t FindFirstEmpty(std::uint64_t mixed) const {
    const std::size_t mask = capacity_ - 1;
    std::size_t group = mixed & mask;
    while (true) {
      const Group g(ctrl_ + group);
      if (const auto e = g.MatchEmpty(); e != 0) {
        return (group + Group::BitToOffset(e)) & mask;
      }
      group = (group + kGroupWidth) & mask;
    }
  }

  void Allocate(std::size_t capacity) {
    capacity_ = capacity;
    const std::size_t ctrl_bytes = capacity + kGroupWidth;
    const std::size_t align = alignof(Slot) > alignof(std::max_align_t)
                                  ? alignof(Slot)
                                  : alignof(std::max_align_t);
    const std::size_t slots_offset = (ctrl_bytes + align - 1) / align * align;
    alloc_bytes_ = slots_offset + capacity * sizeof(Slot);
    auto* raw = static_cast<std::uint8_t*>(
        ::operator new(alloc_bytes_, std::align_val_t{align}));
    ctrl_ = raw;
    slots_ = reinterpret_cast<Slot*>(raw + slots_offset);
    std::memset(ctrl_, kEmpty, ctrl_bytes);
    growth_left_ = MaxSize(capacity) - size_;
  }

  void Free() {
    if (ctrl_ == nullptr) return;
    const std::size_t align = alignof(Slot) > alignof(std::max_align_t)
                                  ? alignof(Slot)
                                  : alignof(std::max_align_t);
    ::operator delete(ctrl_, alloc_bytes_, std::align_val_t{align});
    ctrl_ = nullptr;
    slots_ = nullptr;
    capacity_ = 0;
    growth_left_ = 0;
  }

  void Destroy() {
    if (ctrl_ != nullptr && size_ != 0) {
      for (std::size_t i = 0; i < capacity_; ++i) {
        if (IsFull(i)) slots_[i].~Slot();
      }
    }
    size_ = 0;
    Free();
  }

  void Rehash(std::size_t new_capacity) {
    std::uint8_t* old_ctrl = ctrl_;
    Slot* old_slots = slots_;
    const std::size_t old_capacity = capacity_;
    const std::size_t old_bytes = alloc_bytes_;
    ctrl_ = nullptr;
    Allocate(new_capacity);
    if (old_ctrl != nullptr) {
      for (std::size_t i = 0; i < old_capacity; ++i) {
        if ((old_ctrl[i] & 0x80) != 0) continue;
        const std::uint64_t mixed = MixedHash(GetKey{}(old_slots[i]));
        const std::size_t idx = FindFirstEmpty(mixed);
        SetCtrl(idx, H2(mixed));
        ::new (static_cast<void*>(slots_ + idx)) Slot(std::move(old_slots[i]));
        old_slots[i].~Slot();
      }
      const std::size_t align = alignof(Slot) > alignof(std::max_align_t)
                                    ? alignof(Slot)
                                    : alignof(std::max_align_t);
      ::operator delete(old_ctrl, old_bytes, std::align_val_t{align});
    }
  }

  void CopyFrom(const RawFlatTable& other) {
    hash_ = other.hash_;
    eq_ = other.eq_;
    if (other.capacity_ == 0) return;
    size_ = other.size_;
    Allocate(other.capacity_);
    std::memcpy(ctrl_, other.ctrl_, other.capacity_ + kGroupWidth);
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (IsFull(i)) {
        ::new (static_cast<void*>(slots_ + i)) Slot(other.slots_[i]);
      }
    }
  }

  void StealFrom(RawFlatTable& other) noexcept {
    hash_ = std::move(other.hash_);
    eq_ = std::move(other.eq_);
    ctrl_ = other.ctrl_;
    slots_ = other.slots_;
    capacity_ = other.capacity_;
    size_ = other.size_;
    growth_left_ = other.growth_left_;
    alloc_bytes_ = other.alloc_bytes_;
    other.ctrl_ = nullptr;
    other.slots_ = nullptr;
    other.capacity_ = 0;
    other.size_ = 0;
    other.growth_left_ = 0;
  }

  std::uint8_t* ctrl_ = nullptr;
  Slot* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  std::size_t growth_left_ = 0;
  std::size_t alloc_bytes_ = 0;
  [[no_unique_address]] Hash hash_{};
  [[no_unique_address]] Eq eq_{};
};

/// Forward iterator over the full slots of a RawFlatTable. Erase through
/// the owning container invalidates all iterators (backward-shift moves
/// elements); so does any insert that rehashes.
template <typename Table, typename ValueT>
class FlatIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = std::remove_const_t<ValueT>;
  using reference = ValueT&;
  using pointer = ValueT*;
  using difference_type = std::ptrdiff_t;

  FlatIterator() = default;
  FlatIterator(Table* table, std::size_t index)
      : table_(table), index_(index) {}

  reference operator*() const { return table_->slots()[index_]; }
  pointer operator->() const { return table_->slots() + index_; }

  FlatIterator& operator++() {
    index_ = table_->NextFull(index_ + 1);
    return *this;
  }
  FlatIterator operator++(int) {
    FlatIterator copy = *this;
    ++*this;
    return copy;
  }

  bool operator==(const FlatIterator& other) const {
    return index_ == other.index_;
  }
  bool operator!=(const FlatIterator& other) const {
    return index_ != other.index_;
  }

  std::size_t index() const { return index_; }

 private:
  Table* table_ = nullptr;
  std::size_t index_ = 0;
};

struct PairKey {
  template <typename P>
  const auto& operator()(const P& slot) const {
    return slot.first;
  }
};

struct SelfKey {
  template <typename K>
  const K& operator()(const K& slot) const {
    return slot;
  }
};

}  // namespace flat_internal

/// Open-addressing hash map over id-shaped keys. API: the subset of
/// `std::unordered_map` the engine uses (find/emplace/try_emplace/
/// operator[]/erase/clear/reserve/iteration), with heterogeneous lookups
/// whenever Hash/Eq accept the probe type. Iteration order is unspecified
/// and differs from `std::unordered_map` — consumers must not depend on it.
/// Note `value_type` is `std::pair<Key, Value>` (non-const key, required by
/// backward-shift erase); keys must not be mutated through iterators.
template <typename Key, typename Value, typename Hash = IdHash,
          typename Eq = std::equal_to<>>
class FlatHashMap {
  using Slot = std::pair<Key, Value>;
  using Raw =
      flat_internal::RawFlatTable<Slot, flat_internal::PairKey, Hash, Eq>;

 public:
  using key_type = Key;
  using mapped_type = Value;
  using value_type = Slot;
  using iterator = flat_internal::FlatIterator<Raw, Slot>;
  using const_iterator = flat_internal::FlatIterator<const Raw, const Slot>;

  FlatHashMap() = default;

  std::size_t size() const { return raw_.size(); }
  bool empty() const { return raw_.empty(); }
  std::size_t capacity() const { return raw_.capacity(); }
  void clear() { raw_.clear(); }
  void reserve(std::size_t n) { raw_.reserve(n); }

  iterator begin() { return {&raw_, raw_.NextFull(0)}; }
  iterator end() { return {&raw_, raw_.capacity()}; }
  const_iterator begin() const { return {&raw_, raw_.NextFull(0)}; }
  const_iterator end() const { return {&raw_, raw_.capacity()}; }

  template <typename K2>
  iterator find(const K2& key) {
    const std::size_t idx = raw_.FindIndex(key);
    return {&raw_, idx == Raw::npos ? raw_.capacity() : idx};
  }
  template <typename K2>
  const_iterator find(const K2& key) const {
    const std::size_t idx = raw_.FindIndex(key);
    return {&raw_, idx == Raw::npos ? raw_.capacity() : idx};
  }
  template <typename K2>
  bool contains(const K2& key) const {
    return raw_.FindIndex(key) != Raw::npos;
  }
  template <typename K2>
  std::size_t count(const K2& key) const {
    return contains(key) ? 1 : 0;
  }

  /// try_emplace semantics: the mapped value is constructed only when the
  /// key is absent (also how the engine uses unordered_map::emplace — the
  /// key is never present with different mapped-construction args).
  template <typename K2, typename... Args>
  std::pair<iterator, bool> emplace(K2&& key, Args&&... args) {
    return try_emplace(std::forward<K2>(key), std::forward<Args>(args)...);
  }

  template <typename K2, typename... Args>
  std::pair<iterator, bool> try_emplace(K2&& key, Args&&... args) {
    const auto [idx, inserted] = raw_.FindOrPrepareInsert(key);
    if (inserted) {
      ::new (static_cast<void*>(raw_.slots() + idx))
          Slot(std::piecewise_construct,
               std::forward_as_tuple(std::forward<K2>(key)),
               std::forward_as_tuple(std::forward<Args>(args)...));
    }
    return {iterator{&raw_, idx}, inserted};
  }

  template <typename K2>
  Value& operator[](K2&& key) {
    return try_emplace(std::forward<K2>(key)).first->second;
  }

  void erase(const_iterator it) { raw_.EraseAt(it.index()); }
  void erase(iterator it) { raw_.EraseAt(it.index()); }
  template <typename K2>
  std::size_t erase(const K2& key) {
    const std::size_t idx = raw_.FindIndex(key);
    if (idx == Raw::npos) return 0;
    raw_.EraseAt(idx);
    return 1;
  }

 private:
  Raw raw_;
};

/// Open-addressing hash set; same design notes as FlatHashMap.
template <typename Key, typename Hash = IdHash, typename Eq = std::equal_to<>>
class FlatHashSet {
  using Raw =
      flat_internal::RawFlatTable<Key, flat_internal::SelfKey, Hash, Eq>;

 public:
  using key_type = Key;
  using value_type = Key;
  using iterator = flat_internal::FlatIterator<const Raw, const Key>;
  using const_iterator = iterator;

  FlatHashSet() = default;

  std::size_t size() const { return raw_.size(); }
  bool empty() const { return raw_.empty(); }
  std::size_t capacity() const { return raw_.capacity(); }
  void clear() { raw_.clear(); }
  void reserve(std::size_t n) { raw_.reserve(n); }

  const_iterator begin() const { return {&raw_, raw_.NextFull(0)}; }
  const_iterator end() const { return {&raw_, raw_.capacity()}; }

  template <typename K2>
  const_iterator find(const K2& key) const {
    const std::size_t idx = raw_.FindIndex(key);
    return {&raw_, idx == Raw::npos ? raw_.capacity() : idx};
  }
  template <typename K2>
  bool contains(const K2& key) const {
    return raw_.FindIndex(key) != Raw::npos;
  }
  template <typename K2>
  std::size_t count(const K2& key) const {
    return contains(key) ? 1 : 0;
  }

  template <typename K2>
  std::pair<const_iterator, bool> insert(K2&& key) {
    const auto [idx, inserted] = raw_.FindOrPrepareInsert(key);
    if (inserted) {
      ::new (static_cast<void*>(raw_.slots() + idx))
          Key(std::forward<K2>(key));
    }
    return {const_iterator{&raw_, idx}, inserted};
  }
  template <typename K2>
  std::pair<const_iterator, bool> emplace(K2&& key) {
    return insert(std::forward<K2>(key));
  }

  void erase(const_iterator it) { raw_.EraseAt(it.index()); }
  template <typename K2>
  std::size_t erase(const K2& key) {
    const std::size_t idx = raw_.FindIndex(key);
    if (idx == Raw::npos) return 0;
    raw_.EraseAt(idx);
    return 1;
  }

 private:
  Raw raw_;
};

/// The id-keyed hot-path table aliases the engine declares its containers
/// with.
template <typename Key, typename Value, typename Hash = IdHash,
          typename Eq = std::equal_to<>>
using FlatIdMap = FlatHashMap<Key, Value, Hash, Eq>;

template <typename Key, typename Hash = IdHash, typename Eq = std::equal_to<>>
using FlatIdSet = FlatHashSet<Key, Hash, Eq>;

}  // namespace bcdb

#endif  // BCDB_UTIL_FLAT_TABLE_H_
