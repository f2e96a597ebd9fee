// Asserts the hot lookup path — projecting a key from a stored tuple and
// probing a hash index with it — performs zero heap allocations. Runs in
// its own binary because it links counting_allocator.cc, which overrides
// the global allocation functions to count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "counting_allocator.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "relational/tuple.h"

namespace bcdb {
namespace {

class AllocationGuard {
 public:
  AllocationGuard() : start_(testing_fixtures::HeapAllocations()) {}
  std::size_t count() const {
    return testing_fixtures::HeapAllocations() - start_;
  }

 private:
  std::size_t start_;
};

Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kString, false},
                            Attribute{"c", ValueType::kInt, false}}))
                  .ok());
  return catalog;
}

TEST(TupleAllocTest, SmallTupleConstructionFromIdsDoesNotAllocate) {
  const Tuple source({Value::Int(1), Value::Str("x"), Value::Int(2)});
  const std::vector<std::size_t> positions{2, 0};
  AllocationGuard guard;
  const Tuple copy = source;                    // Id copy, arity <= 4.
  const Tuple gathered = source.Project(positions);
  EXPECT_EQ(guard.count(), 0u) << "small tuples must stay inline";
  EXPECT_EQ(copy, source);
  EXPECT_EQ(gathered.arity(), 2u);
}

TEST(TupleAllocTest, IndexLookupPathDoesNotAllocate) {
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  for (int i = 0; i < 64; ++i) {
    rel.Insert(Tuple({Value::Int(i % 8), Value::Str("s" + std::to_string(i)),
                      Value::Int(i)}),
               kBaseOwner);
  }
  const std::vector<std::size_t> key_positions{0};
  const std::size_t index_id = rel.GetOrBuildIndex(key_positions);
  const WorldView base = db.BaseView();
  const Tuple& probe_source = rel.tuple(0);

  std::size_t hits = 0;
  AllocationGuard guard;
  for (int round = 0; round < 100; ++round) {
    const ProjectionKey key = probe_source.ProjectKey(key_positions);
    for (TupleId id : rel.IndexLookup(index_id, key)) {
      if (rel.IsVisible(id, base)) ++hits;
    }
    if (rel.ContainsVisible(key, base)) ++hits;
  }
  EXPECT_EQ(guard.count(), 0u)
      << "projection-key index probes must not touch the heap";
  EXPECT_GT(hits, 0u);
}

TEST(TupleAllocTest, FdStyleBucketProbeDoesNotAllocate) {
  // The FdGraph conflict probe: project a determinant, look it up in an
  // id-keyed bucket map. With heterogeneous lookup the probe side never
  // materializes a Tuple.
  const std::vector<std::size_t> determinant{0, 2};
  std::unordered_map<Tuple, int, TupleHash, TupleEq> buckets;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 32; ++i) {
    tuples.push_back(Tuple(
        {Value::Int(i % 4), Value::Str("d" + std::to_string(i)),
         Value::Int(i % 3)}));
    buckets[tuples.back().Project(determinant)] += 1;
  }
  std::size_t found = 0;
  AllocationGuard guard;
  for (const Tuple& t : tuples) {
    auto it = buckets.find(t.ProjectKey(determinant));
    if (it != buckets.end()) found += static_cast<std::size_t>(it->second);
  }
  EXPECT_EQ(guard.count(), 0u) << "bucket probes must not touch the heap";
  EXPECT_GT(found, 0u);
}

}  // namespace
}  // namespace bcdb
