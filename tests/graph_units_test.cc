// Focused unit tests for the graph-layer pieces that the integration suites
// exercise only indirectly: equality-constraint bucketing, getMaximal
// fixpoint behaviour, fd-graph edge cases, and out-of-order block gossip.

#include <gtest/gtest.h>

#include "core/fd_graph.h"
#include "core/get_maximal.h"
#include "core/ind_graph.h"
#include "network/simulator.h"
#include "query/parser.h"

namespace bcdb {
namespace {

/// Two relations with one IND; no FDs — everything is mutually compatible.
BlockchainDatabase MakeIndOnlyDb() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "P", {Attribute{"k", ValueType::kInt, false},
                            Attribute{"v", ValueType::kInt, false}}))
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "C", {Attribute{"r", ValueType::kInt, false}}))
                  .ok());
  ConstraintSet constraints;
  constraints.AddInd(
      *InclusionDependency::Create(catalog, "C", {"r"}, "P", {"k"}));
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

Transaction Parent(std::int64_t k) {
  Transaction txn("parent" + std::to_string(k));
  txn.Add("P", Tuple({Value::Int(k), Value::Int(0)}));
  return txn;
}

Transaction Child(std::int64_t r) {
  Transaction txn("child" + std::to_string(r));
  txn.Add("C", Tuple({Value::Int(r)}));
  return txn;
}

TEST(IndGraphUnitTest, BucketsLinkOnlyAcrossSides) {
  BlockchainDatabase db = MakeIndOnlyDb();
  // parents 1, 2; children referencing 1, 1, 3 (3 is dangling).
  ASSERT_TRUE(db.AddPending(Parent(1)).ok());  // 0
  ASSERT_TRUE(db.AddPending(Parent(2)).ok());  // 1
  ASSERT_TRUE(db.AddPending(Child(1)).ok());   // 2
  ASSERT_TRUE(db.AddPending(Child(1)).ok());   // 3  (distinct txn, same ref)
  ASSERT_TRUE(db.AddPending(Child(3)).ok());   // 4  (no pending parent)

  FdGraph fd_graph(db);
  UnionFind uf(db.num_pending());
  MergeEqualityComponents(db, EqualitiesFromConstraints(db.constraints()),
                          fd_graph.valid_nodes(), uf);
  // Children of key 1 merge with parent(1) — and with each other only
  // through that parent (complete-bipartite bucket).
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_TRUE(uf.Connected(0, 3));
  EXPECT_TRUE(uf.Connected(2, 3));
  // parent(2) stays alone: its bucket has no child side.
  EXPECT_FALSE(uf.Connected(0, 1));
  // Dangling child(3): bucket has a lhs side only.
  EXPECT_FALSE(uf.Connected(4, 0));
  EXPECT_FALSE(uf.Connected(4, 1));
}

TEST(IndGraphUnitTest, QueryEqualitiesMergeViaSharedConstants) {
  BlockchainDatabase db = MakeIndOnlyDb();
  ASSERT_TRUE(db.AddPending(Parent(7)).ok());  // 0
  ASSERT_TRUE(db.AddPending(Parent(7)).ok());  // 1: same key, no conflict
                                               // (no FDs) — P(7,0) dedupes?
  // Note: both transactions contribute the identical tuple (7,0); set
  // semantics share it, and the Θ-bucket sees both owners on both sides.
  auto q = ParseDenialConstraint("q() :- P(7, v1), P(7, v2)");
  ASSERT_TRUE(q.ok());
  auto theta_q = EqualitiesFromQuery(*q, db.catalog());
  ASSERT_TRUE(theta_q.ok());
  ASSERT_FALSE(theta_q->empty());

  FdGraph fd_graph(db);
  UnionFind uf(db.num_pending());
  MergeEqualityComponents(db, *theta_q, fd_graph.valid_nodes(), uf);
  EXPECT_TRUE(uf.Connected(0, 1));
}

TEST(GetMaximalUnitTest, FixpointAddsDependantsAcrossPasses) {
  BlockchainDatabase db = MakeIndOnlyDb();
  // Chain: C(5) needs P(5); list the child first so the first pass cannot
  // place it.
  auto child = db.AddPending(Child(5));
  auto parent = db.AddPending(Parent(5));
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(parent.ok());

  GetMaximalStats stats;
  const WorldView world = GetMaximal(db, {*child, *parent}, &stats);
  EXPECT_TRUE(world.IsActive(static_cast<TupleOwner>(*child)));
  EXPECT_TRUE(world.IsActive(static_cast<TupleOwner>(*parent)));
  EXPECT_EQ(stats.appended, 2u);
  EXPECT_GE(stats.iterations, 1u);
}

TEST(GetMaximalUnitTest, UnappendableCandidatesStayOut) {
  BlockchainDatabase db = MakeIndOnlyDb();
  auto dangling = db.AddPending(Child(9));  // No parent anywhere.
  ASSERT_TRUE(dangling.ok());
  GetMaximalStats stats;
  const WorldView world = GetMaximal(db, {*dangling}, &stats);
  EXPECT_FALSE(world.IsActive(static_cast<TupleOwner>(*dangling)));
  EXPECT_EQ(stats.appended, 0u);
}

TEST(FdGraphUnitTest, NoFdsMeansCompleteGraph) {
  BlockchainDatabase db = MakeIndOnlyDb();
  ASSERT_TRUE(db.AddPending(Parent(1)).ok());
  ASSERT_TRUE(db.AddPending(Parent(2)).ok());
  ASSERT_TRUE(db.AddPending(Child(1)).ok());
  FdGraph fd_graph(db);
  EXPECT_EQ(fd_graph.num_conflict_pairs(), 0u);
  EXPECT_EQ(fd_graph.valid_nodes().Count(), 3u);
  // K3: every valid pair adjacent, v(v-1)/2 - conflicts edges.
  std::size_t edges = 0;
  for (PendingId u = 0; u < db.num_pending(); ++u) {
    for (PendingId v = u + 1; v < db.num_pending(); ++v) {
      edges += fd_graph.Adjacent(u, v) ? 1 : 0;
    }
  }
  EXPECT_EQ(edges, 3u);
  const std::size_t valid = fd_graph.valid_nodes().Count();
  EXPECT_EQ(valid * (valid - 1) / 2 - fd_graph.num_conflict_pairs(), 3u);
}

TEST(FdGraphUnitTest, AppliedAndDiscardedExcluded) {
  BlockchainDatabase db = MakeIndOnlyDb();
  auto a = db.AddPending(Parent(1));
  auto b = db.AddPending(Parent(2));
  auto c = db.AddPending(Parent(3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(db.ApplyPending(*a).ok());
  ASSERT_TRUE(db.DiscardPending(*b).ok());
  FdGraph fd_graph(db);
  EXPECT_FALSE(fd_graph.valid_nodes().Test(*a));
  EXPECT_FALSE(fd_graph.valid_nodes().Test(*b));
  EXPECT_TRUE(fd_graph.valid_nodes().Test(*c));
}

/// One relation R(a, b) with key a; the base holds R(1, 0).
BlockchainDatabase MakeKeyDb() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  ConstraintSet constraints;
  auto key = FunctionalDependency::Key(catalog, "R", {"a"});
  EXPECT_TRUE(key.ok());
  constraints.AddFd(std::move(*key));
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(db->InsertCurrent("R", Tuple({Value::Int(1), Value::Int(0)}))
                  .ok());
  return std::move(*db);
}

Transaction KeyRow(std::int64_t a, std::int64_t b) {
  Transaction txn("r" + std::to_string(a) + "_" + std::to_string(b));
  txn.Add("R", Tuple({Value::Int(a), Value::Int(b)}));
  return txn;
}

TEST(FdGraphUnitTest, ConflictListsAreSortedAndSymmetric) {
  BlockchainDatabase db = MakeKeyDb();
  ASSERT_TRUE(db.AddPending(KeyRow(7, 1)).ok());  // 0
  ASSERT_TRUE(db.AddPending(KeyRow(8, 1)).ok());  // 1
  ASSERT_TRUE(db.AddPending(KeyRow(7, 2)).ok());  // 2
  ASSERT_TRUE(db.AddPending(KeyRow(7, 3)).ok());  // 3
  ASSERT_TRUE(db.AddPending(KeyRow(1, 5)).ok());  // 4: clashes with R(1, 0)
  FdGraph fd_graph(db);
  EXPECT_EQ(fd_graph.conflicts(0), (std::vector<PendingId>{2, 3}));
  EXPECT_EQ(fd_graph.conflicts(2), (std::vector<PendingId>{0, 3}));
  EXPECT_EQ(fd_graph.conflicts(3), (std::vector<PendingId>{0, 2}));
  EXPECT_TRUE(fd_graph.conflicts(1).empty());
  EXPECT_TRUE(fd_graph.conflicts(4).empty());  // Invalid: no conflicts.
  EXPECT_EQ(fd_graph.num_conflict_pairs(), 3u);
  EXPECT_TRUE(fd_graph.Adjacent(0, 1));
  EXPECT_FALSE(fd_graph.Adjacent(0, 2));
  EXPECT_FALSE(fd_graph.Adjacent(1, 1));
  EXPECT_FALSE(fd_graph.Adjacent(1, 4));  // 4 is not a valid node.

  // Applying 0 invalidates its conflictors, ascending, and unlinks them.
  ASSERT_TRUE(db.ApplyPending(0).ok());
  EXPECT_EQ(fd_graph.ApplyPendingNode(0), (std::vector<PendingId>{0, 2, 3}));
  EXPECT_EQ(fd_graph.num_conflict_pairs(), 0u);
  for (PendingId v = 0; v < db.num_pending(); ++v) {
    EXPECT_TRUE(fd_graph.conflicts(v).empty()) << v;
  }
}

TEST(FdGraphUnitTest, DiscardedInvalidNodeIsNeverRevalidated) {
  BlockchainDatabase db = MakeKeyDb();
  auto dropped = db.AddPending(KeyRow(1, 1));  // Invalid against R(1, 0).
  auto kept = db.AddPending(KeyRow(1, 2));     // Invalid against R(1, 0).
  ASSERT_TRUE(dropped.ok());
  ASSERT_TRUE(kept.ok());
  FdGraph fd_graph(db);
  EXPECT_TRUE(fd_graph.valid_nodes().None());

  ASSERT_TRUE(db.DiscardPending(*dropped).ok());
  EXPECT_FALSE(fd_graph.RemovePendingNode(*dropped));
  // A transaction the graph has not integrated yet is a candidate too.
  auto fresh = db.AddPending(KeyRow(1, 3));
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(db.RemoveCurrent("R", Tuple({Value::Int(1), Value::Int(0)}))
                  .ok());
  EXPECT_EQ(fd_graph.RevalidateTouching(db.PendingRelations(*kept)),
            (std::vector<PendingId>{*kept, *fresh}));
  EXPECT_FALSE(fd_graph.valid_nodes().Test(*dropped));
  EXPECT_EQ(fd_graph.conflicts(*kept), (std::vector<PendingId>{*fresh}));
  EXPECT_FALSE(fd_graph.AddPendingNode(*fresh));  // Already integrated.
  EXPECT_TRUE(fd_graph.RevalidateTouching(db.PendingRelations(*kept)).empty());
  EXPECT_FALSE(fd_graph.valid_nodes().Test(*dropped));
}

TEST(NetworkUnitTest, OutOfOrderBlocksAreOrphanBufferedAndApplied) {
  net::NetworkParams params;
  params.num_nodes = 6;
  params.extra_edges = 0;  // Ring: multi-hop propagation.
  params.min_latency = 1.0;
  params.max_latency = 1.0;
  params.seed = 3;
  net::NetworkSimulator net(params);

  bitcoin::MinerPolicy policy;
  // Mine two blocks back-to-back at node 0 without letting gossip settle:
  // block 2's announcements race block 1's around the ring.
  ASSERT_TRUE(net.MineAt(0, policy).ok());
  net.RunUntil(net.now() + 1.0);  // Block 1 reaches the direct neighbours.
  ASSERT_TRUE(net.MineAt(0, policy).ok());
  net.Run();
  EXPECT_TRUE(net.ChainsConsistent());
  for (net::NodeId v = 0; v < net.num_nodes(); ++v) {
    EXPECT_EQ(net.node(v).chain().height(), 2u) << v;
  }
}

}  // namespace
}  // namespace bcdb
