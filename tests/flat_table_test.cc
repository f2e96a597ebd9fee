// Differential and unit tests for the flat open-addressing tables.
//
// The core guarantee is behavioural equivalence with std::unordered_map /
// std::unordered_set over the API subset the engine uses — the randomized
// suites drive both containers through identical op streams (insert, erase,
// probe, clear, reserve, copy, move) and compare contents after every
// mutation batch. Erase uses backward-shift deletion, the most delicate part
// of the design, so the streams are churn-heavy on purpose.

#include "util/flat_table.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "relational/tuple.h"
#include "relational/value.h"

namespace bcdb {
namespace {

TEST(FlatHashMapTest, BasicInsertFindErase) {
  FlatHashMap<std::uint32_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.contains(7u));

  auto [it, inserted] = map.try_emplace(7u, 42);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->first, 7u);
  EXPECT_EQ(it->second, 42);
  EXPECT_EQ(map.size(), 1u);

  auto [it2, inserted2] = map.try_emplace(7u, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, 42);  // try_emplace: existing value untouched.

  map[7u] = 43;
  EXPECT_EQ(map.find(7u)->second, 43);
  map[8u];  // Default-constructs.
  EXPECT_EQ(map.find(8u)->second, 0);

  EXPECT_EQ(map.erase(7u), 1u);
  EXPECT_EQ(map.erase(7u), 0u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_FALSE(map.contains(7u));
  EXPECT_TRUE(map.contains(8u));
}

TEST(FlatHashMapTest, DenseSequentialIdsGrow) {
  // Dense ids are the worst case for power-of-two tables without a mixer;
  // this exercises growth + the HashMix64 spread at once.
  FlatHashMap<std::uint32_t, std::uint32_t> map;
  constexpr std::uint32_t kN = 100000;
  for (std::uint32_t i = 0; i < kN; ++i) map.try_emplace(i, i * 2);
  EXPECT_EQ(map.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    auto it = map.find(i);
    ASSERT_NE(it, map.end());
    EXPECT_EQ(it->second, i * 2);
  }
  EXPECT_FALSE(map.contains(kN));
}

TEST(FlatHashMapTest, ReservePreventsRehash) {
  FlatHashMap<std::uint32_t, int> map;
  map.reserve(1000);
  const std::size_t cap = map.capacity();
  EXPECT_GE(cap - cap / 8, 1000u);  // 7/8 load factor honoured.
  for (std::uint32_t i = 0; i < 1000; ++i) map.try_emplace(i, 0);
  EXPECT_EQ(map.capacity(), cap);
}

TEST(FlatHashMapTest, ClearThenReuse) {
  FlatHashMap<std::uint32_t, std::string> map;
  for (std::uint32_t i = 0; i < 100; ++i) map.try_emplace(i, "v");
  map.clear();
  EXPECT_TRUE(map.empty());
  for (std::uint32_t i = 50; i < 150; ++i) map.try_emplace(i, "w");
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.find(50u)->second, "w");
  EXPECT_FALSE(map.contains(0u));
}

TEST(FlatHashMapTest, CopyAndMoveSemantics) {
  FlatHashMap<std::uint32_t, std::string> map;
  for (std::uint32_t i = 0; i < 500; ++i) map.try_emplace(i, std::to_string(i));

  FlatHashMap<std::uint32_t, std::string> copy(map);
  EXPECT_EQ(copy.size(), 500u);
  EXPECT_EQ(copy.find(123u)->second, "123");
  copy.erase(123u);
  EXPECT_TRUE(map.contains(123u));  // Deep copy.

  FlatHashMap<std::uint32_t, std::string> moved(std::move(map));
  EXPECT_EQ(moved.size(), 500u);
  EXPECT_EQ(moved.find(321u)->second, "321");

  copy = moved;  // Copy-assign over a non-empty table.
  EXPECT_EQ(copy.size(), 500u);
  EXPECT_TRUE(copy.contains(123u));

  FlatHashMap<std::uint32_t, std::string> target;
  target.try_emplace(9999u, "x");
  target = std::move(moved);  // Move-assign destroys old contents.
  EXPECT_EQ(target.size(), 500u);
  EXPECT_FALSE(target.contains(9999u));
}

TEST(FlatHashMapTest, MoveOnlyValues) {
  FlatHashMap<std::uint32_t, std::unique_ptr<int>> map;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    map.try_emplace(i, std::make_unique<int>(static_cast<int>(i)));
  }
  EXPECT_EQ(*map.find(77u)->second, 77);
  // Erase-heavy churn forces backward-shift moves of the unique_ptr slots.
  for (std::uint32_t i = 0; i < 1000; i += 2) map.erase(i);
  EXPECT_EQ(map.size(), 500u);
  for (std::uint32_t i = 1; i < 1000; i += 2) {
    ASSERT_TRUE(map.contains(i)) << i;
    EXPECT_EQ(*map.find(i)->second, static_cast<int>(i));
  }
  FlatHashMap<std::uint32_t, std::unique_ptr<int>> moved(std::move(map));
  EXPECT_EQ(*moved.find(1u)->second, 1);
}

TEST(FlatHashSetTest, BasicOps) {
  FlatHashSet<std::uint64_t> set;
  EXPECT_TRUE(set.insert(5u).second);
  EXPECT_FALSE(set.insert(5u).second);
  EXPECT_TRUE(set.contains(5u));
  EXPECT_EQ(set.count(5u), 1u);
  EXPECT_EQ(set.erase(5u), 1u);
  EXPECT_EQ(set.count(5u), 0u);
}

TEST(FlatHashMapTest, IterationVisitsEachElementOnce) {
  FlatHashMap<std::uint32_t, std::uint32_t> map;
  for (std::uint32_t i = 0; i < 1234; ++i) map.try_emplace(i, i);
  std::vector<bool> seen(1234, false);
  std::size_t n = 0;
  for (const auto& [k, v] : map) {
    EXPECT_EQ(k, v);
    ASSERT_LT(k, 1234u);
    EXPECT_FALSE(seen[k]);
    seen[k] = true;
    ++n;
  }
  EXPECT_EQ(n, 1234u);
}

// ---------------------------------------------------------------------------
// Randomized differential suites vs the std containers.

TEST(FlatTableDifferentialTest, MapMatchesUnorderedMapUnderChurn) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL);
    FlatHashMap<std::uint64_t, std::uint64_t> flat;
    std::unordered_map<std::uint64_t, std::uint64_t, IdHash, std::equal_to<>>
        ref;
    // Small key domain → constant collisions, erases, and re-inserts.
    std::uniform_int_distribution<std::uint64_t> key_dist(0, 1 << 12);
    for (int op = 0; op < 12000; ++op) {
      const std::uint64_t key = key_dist(rng);
      switch (rng() % 8) {
        case 0:
        case 1:
        case 2: {  // insert
          const std::uint64_t value = rng();
          const bool fi = flat.try_emplace(key, value).second;
          const bool ri = ref.try_emplace(key, value).second;
          ASSERT_EQ(fi, ri) << "seed " << seed << " op " << op;
          break;
        }
        case 3: {  // overwrite via operator[]
          const std::uint64_t value = rng();
          flat[key] = value;
          ref[key] = value;
          break;
        }
        case 4:
        case 5: {  // erase by key
          ASSERT_EQ(flat.erase(key), ref.erase(key))
              << "seed " << seed << " op " << op;
          break;
        }
        case 6: {  // erase by iterator when present
          auto fit = flat.find(key);
          auto rit = ref.find(key);
          ASSERT_EQ(fit == flat.end(), rit == ref.end());
          if (fit != flat.end()) {
            flat.erase(fit);
            ref.erase(rit);
          }
          break;
        }
        default: {  // probe
          auto fit = flat.find(key);
          auto rit = ref.find(key);
          ASSERT_EQ(fit == flat.end(), rit == ref.end())
              << "seed " << seed << " op " << op << " key " << key;
          if (fit != flat.end()) {
            ASSERT_EQ(fit->second, rit->second);
          }
          break;
        }
      }
      ASSERT_EQ(flat.size(), ref.size());
      if (op % 3000 == 2999) {
        // Full-content audit both directions.
        for (const auto& [k, v] : ref) {
          auto fit = flat.find(k);
          ASSERT_NE(fit, flat.end()) << "missing key " << k;
          ASSERT_EQ(fit->second, v);
        }
        std::size_t count = 0;
        for (const auto& [k, v] : flat) {
          auto rit = ref.find(k);
          ASSERT_NE(rit, ref.end()) << "phantom key " << k;
          ASSERT_EQ(rit->second, v);
          ++count;
        }
        ASSERT_EQ(count, ref.size());
      }
    }
  }
}

TEST(FlatTableDifferentialTest, SetMatchesUnorderedSetUnderChurn) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed * 0xda942042e4dd58b5ULL);
    FlatHashSet<std::uint32_t> flat;
    std::unordered_set<std::uint32_t, IdHash, std::equal_to<>> ref;
    std::uniform_int_distribution<std::uint32_t> key_dist(0, 1 << 11);
    for (int op = 0; op < 12000; ++op) {
      const std::uint32_t key = key_dist(rng);
      switch (rng() % 4) {
        case 0:
        case 1: {
          ASSERT_EQ(flat.insert(key).second, ref.insert(key).second);
          break;
        }
        case 2: {
          ASSERT_EQ(flat.erase(key), ref.erase(key));
          break;
        }
        default: {
          ASSERT_EQ(flat.contains(key), ref.count(key) != 0);
          break;
        }
      }
      ASSERT_EQ(flat.size(), ref.size());
    }
    for (std::uint32_t k : ref) ASSERT_TRUE(flat.contains(k));
  }
}

Tuple RandomTuple(std::mt19937_64& rng, std::size_t arity,
                  std::int64_t domain) {
  std::vector<Value> values;
  values.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    values.push_back(Value::Int(static_cast<std::int64_t>(rng() % domain)));
  }
  return Tuple(values);
}

TEST(FlatTableDifferentialTest, TupleKeysWithHeterogeneousProbes) {
  // Mirrors the engine's index-bucket pattern: Tuple keys, ProjectionKey
  // probes (zero-allocation heterogeneous lookup), vector payloads.
  const std::vector<std::size_t> kAll = {0, 1};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dULL);
    FlatHashMap<Tuple, std::vector<int>, TupleHash, TupleEq> flat;
    std::unordered_map<Tuple, std::vector<int>, TupleHash, TupleEq> ref;
    for (int op = 0; op < 10000; ++op) {
      Tuple t = RandomTuple(rng, 2, 64);
      switch (rng() % 4) {
        case 0:
        case 1: {
          const int payload = static_cast<int>(rng() % 1000);
          flat[t].push_back(payload);
          ref[t].push_back(payload);
          break;
        }
        case 2: {
          ASSERT_EQ(flat.erase(t), ref.erase(t));
          break;
        }
        default: {
          // Probe with a ProjectionKey built from the tuple — must not
          // require materializing a Tuple key.
          const ProjectionKey key = t.ProjectKey(kAll);
          auto fit = flat.find(key);
          auto rit = ref.find(key);
          ASSERT_EQ(fit == flat.end(), rit == ref.end())
              << "seed " << seed << " op " << op;
          if (fit != flat.end()) {
            ASSERT_EQ(fit->first, rit->first);
            ASSERT_EQ(fit->second, rit->second);
          }
          ASSERT_EQ(flat.contains(key), ref.contains(key));
          break;
        }
      }
      ASSERT_EQ(flat.size(), ref.size());
    }
    for (const auto& [k, v] : ref) {
      auto fit = flat.find(k);
      ASSERT_NE(fit, flat.end());
      ASSERT_EQ(fit->second, v);
    }
  }
}

TEST(FlatTableDifferentialTest, TupleSetDistinctChurn) {
  // The compiled-query distinct-set pattern: insert-if-absent with
  // periodic clear, Tuple keys of mixed arity.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
    FlatHashSet<Tuple, TupleHash, TupleEq> flat;
    std::unordered_set<Tuple, TupleHash, TupleEq> ref;
    for (int op = 0; op < 10000; ++op) {
      if (op % 2500 == 2499) {
        flat.clear();
        ref.clear();
        continue;
      }
      Tuple t = RandomTuple(rng, 1 + rng() % 3, 40);
      ASSERT_EQ(flat.insert(t).second, ref.insert(t).second)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(flat.size(), ref.size());
    }
    for (const Tuple& t : ref) ASSERT_TRUE(flat.contains(t));
  }
}

// ---------------------------------------------------------------------------
// Concurrent read-only probes of a quiescent table (tsan coverage): the
// lookup path must not mutate shared state.

TEST(FlatTableConcurrencyTest, ParallelReadOnlyProbes) {
  FlatHashMap<std::uint32_t, std::uint32_t> map;
  constexpr std::uint32_t kN = 50000;
  for (std::uint32_t i = 0; i < kN; ++i) map.try_emplace(i, i ^ 0xabcdu);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> hits(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, &hits, t, kN] {
      std::mt19937 rng(static_cast<unsigned>(t) + 1);
      std::uint64_t local = 0;
      for (int i = 0; i < 200000; ++i) {
        const std::uint32_t key = rng() % (2 * kN);
        auto it = map.find(key);
        if (it != map.end()) {
          ASSERT_EQ(it->second, key ^ 0xabcdu);
          ++local;
        } else {
          ASSERT_GE(key, kN);
        }
      }
      hits[t] = local;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_GT(hits[t], 0u);
}

}  // namespace
}  // namespace bcdb
