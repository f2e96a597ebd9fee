#include "relational/value_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "relational/tuple.h"
#include "relational/value.h"
#include "util/hash.h"

namespace bcdb {
namespace {

/// Random values from a deliberately collision-rich space: small domains so
/// the same value recurs often (exercising the intern fast path) plus the
/// awkward corners (NaN, infinities, integral reals, int64 extremes).
class ValueGen {
 public:
  explicit ValueGen(std::uint64_t seed) : rng_(seed) {}

  Value Next() {
    switch (rng_() % 10) {
      case 0:
        return Value::Null();
      case 1:
      case 2:
        return Value::Int(static_cast<std::int64_t>(rng_() % 50));
      case 3:
        return Value::Int(Pick<std::int64_t>(
            {std::numeric_limits<std::int64_t>::min(),
             std::numeric_limits<std::int64_t>::max(), -1, 0, 1}));
      case 4:
        return Value::Real(static_cast<double>(rng_() % 50));  // Integral.
      case 5:
        return Value::Real(static_cast<double>(rng_() % 50) + 0.5);
      case 6:
        return Value::Real(Pick({std::numeric_limits<double>::quiet_NaN(),
                                 -std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 1e300, -0.0, 9.3e18}));
      case 7:
      case 8:
        return Value::Str(std::string(1, static_cast<char>('a' + rng_() % 8)));
      default:
        return Value::Str("key-" + std::to_string(rng_() % 30));
    }
  }

 private:
  template <typename T>
  T Pick(std::initializer_list<T> options) {
    return *(options.begin() + rng_() % options.size());
  }

  std::mt19937_64 rng_;
};

/// Reference semantics computed directly over Values, bypassing the pool.
int ReferenceCompare(const std::vector<Value>& a, const std::vector<Value>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

TEST(ValuePoolTest, InternResolveRoundTripsCompareEqual) {
  ValuePool& pool = ValuePool::Global();
  ValueGen gen(20260806);
  for (int i = 0; i < 10000; ++i) {
    const Value v = gen.Next();
    const ValueId id = pool.Intern(v);
    const Value& resolved = pool.value(id);
    EXPECT_EQ(v.Compare(resolved), 0)
        << v.ToString() << " resolved as " << resolved.ToString();
    // Resolving is idempotent: the canonical form interns to the same id.
    EXPECT_EQ(pool.Intern(resolved), id);
    // The stored hash matches the canonical value's own hash.
    EXPECT_EQ(pool.hash(id), resolved.Hash());
  }
}

TEST(ValuePoolTest, IdEqualityMatchesDeepEquality) {
  ValuePool& pool = ValuePool::Global();
  ValueGen gen(42);
  std::vector<Value> values;
  std::vector<ValueId> ids;
  for (int i = 0; i < 300; ++i) {
    values.push_back(gen.Next());
    ids.push_back(pool.Intern(values.back()));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = 0; j < values.size(); ++j) {
      EXPECT_EQ(ids[i] == ids[j], values[i].Compare(values[j]) == 0)
          << values[i].ToString() << " vs " << values[j].ToString();
    }
  }
}

TEST(ValuePoolTest, CanonicalizesIntegralRealsAndNans) {
  ValuePool& pool = ValuePool::Global();
  EXPECT_EQ(pool.Intern(Value::Real(7.0)), pool.Intern(Value::Int(7)));
  EXPECT_EQ(pool.Intern(Value::Real(-0.0)), pool.Intern(Value::Int(0)));
  EXPECT_NE(pool.Intern(Value::Real(7.5)), pool.Intern(Value::Int(7)));
  const ValueId nan_id =
      pool.Intern(Value::Real(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(pool.Intern(Value::Real(-std::numeric_limits<double>::quiet_NaN())),
            nan_id);
  // Out-of-int64-range integral reals must NOT collapse to an int.
  const ValueId huge = pool.Intern(Value::Real(1e300));
  EXPECT_EQ(pool.value(huge).type(), ValueType::kReal);
  EXPECT_EQ(pool.Intern(Value::Null()), kNullValueId);
}

TEST(ValuePoolTest, StableReferencesAcrossGrowth) {
  ValuePool& pool = ValuePool::Global();
  const ValueId id = pool.Intern(Value::Str("stable-probe"));
  const Value* before = &pool.value(id);
  // Force several chunk allocations.
  for (int i = 0; i < 5000; ++i) {
    pool.Intern(Value::Str("growth-filler-" + std::to_string(i)));
  }
  EXPECT_EQ(before, &pool.value(id));
}

TEST(ValuePoolTest, TupleOpsAgreeWithNaiveReferenceRandomized) {
  std::mt19937_64 rng(777);
  ValueGen gen(777);
  for (int iter = 0; iter < 10000; ++iter) {
    const std::size_t arity_a = rng() % 7;  // Crosses the inline boundary (4).
    const std::size_t arity_b = (rng() % 4 == 0) ? arity_a : rng() % 7;
    std::vector<Value> raw_a, raw_b;
    for (std::size_t i = 0; i < arity_a; ++i) raw_a.push_back(gen.Next());
    for (std::size_t i = 0; i < arity_b; ++i) raw_b.push_back(gen.Next());
    if (arity_a == arity_b && rng() % 3 == 0) raw_b = raw_a;  // Force equals.

    const Tuple a(raw_a);
    const Tuple b(raw_b);
    ASSERT_EQ(a.arity(), arity_a);

    // Compare / equality match the naive elementwise reference.
    const int ref = ReferenceCompare(raw_a, raw_b);
    EXPECT_EQ(a.Compare(b) < 0, ref < 0);
    EXPECT_EQ(a.Compare(b) > 0, ref > 0);
    EXPECT_EQ(a == b, ref == 0);
    // Hash is a function of value equality.
    if (ref == 0) {
      EXPECT_EQ(a.Hash(), b.Hash());
    }

    // Projection agrees with projecting the raw values.
    if (arity_a > 0) {
      std::vector<std::size_t> positions;
      for (std::size_t i = 0; i < 1 + rng() % arity_a; ++i) {
        positions.push_back(rng() % arity_a);
      }
      const Tuple projected = a.Project(positions);
      ASSERT_EQ(projected.arity(), positions.size());
      for (std::size_t i = 0; i < positions.size(); ++i) {
        EXPECT_EQ(projected[i].Compare(raw_a[positions[i]]), 0);
      }
      // The projection view is id-identical to the projected tuple and
      // hashes the same, so either works as the same hash-map key.
      const ProjectionKey key = a.ProjectKey(positions);
      EXPECT_EQ(key.Hash(), projected.Hash());
      EXPECT_TRUE(TupleEq{}(projected, key));
      EXPECT_EQ(Tuple::FromIds(key), projected);
    }

    // Accessors round-trip every element.
    for (std::size_t i = 0; i < arity_a; ++i) {
      EXPECT_EQ(a[i].Compare(raw_a[i]), 0);
      EXPECT_EQ(a.id_at(i), ValuePool::Global().Intern(raw_a[i]));
    }
    const std::vector<Value> materialized = a.values();
    ASSERT_EQ(materialized.size(), arity_a);
    for (std::size_t i = 0; i < arity_a; ++i) {
      EXPECT_EQ(materialized[i].Compare(raw_a[i]), 0);
    }
  }
}

TEST(ValuePoolTest, ConcurrentResolveWhileInterning) {
  // Readers resolve established ids while a writer grows the pool across
  // chunk boundaries — the differential monitors do exactly this shape
  // (resolve on worker threads, intern on the ingest thread).
  ValuePool& pool = ValuePool::Global();
  std::vector<ValueId> ids;
  for (int i = 0; i < 256; ++i) {
    ids.push_back(pool.Intern(Value::Int(1000000 + i)));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::size_t checksum = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (ValueId id : ids) checksum ^= pool.hash(id);
      }
      (void)checksum;
    });
  }
  for (int i = 0; i < 20000; ++i) {
    pool.Intern(Value::Str("concurrent-" + std::to_string(i)));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(pool.value(ids[i]).AsInt(), 1000000 + i);
  }
}

}  // namespace
}  // namespace bcdb
