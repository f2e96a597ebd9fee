#include <gtest/gtest.h>

#include "relational/database.h"
#include "relational/relation.h"

namespace bcdb {
namespace {

Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kString, false}}))
                  .ok());
  return catalog;
}

Tuple T(std::int64_t a, const std::string& b) {
  return Tuple({Value::Int(a), Value::Str(b)});
}

TEST(RelationTest, InsertDeduplicates) {
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  const TupleId id1 = rel.Insert(T(1, "x"), kBaseOwner);
  const TupleId id2 = rel.Insert(T(1, "x"), kBaseOwner);
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(rel.num_tuples(), 1u);
}

TEST(RelationTest, VisibilityFollowsOwners) {
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  const TupleOwner t0 = db.RegisterOwner();
  const TupleOwner t1 = db.RegisterOwner();
  rel.Insert(T(1, "base"), kBaseOwner);
  rel.Insert(T(2, "pending0"), t0);
  rel.Insert(T(3, "pending1"), t1);

  WorldView base = db.BaseView();
  EXPECT_TRUE(rel.ContainsVisible(T(1, "base"), base));
  EXPECT_FALSE(rel.ContainsVisible(T(2, "pending0"), base));
  EXPECT_EQ(rel.CountVisible(base), 1u);

  WorldView with_t0 = db.BaseView();
  with_t0.Activate(t0);
  EXPECT_TRUE(rel.ContainsVisible(T(2, "pending0"), with_t0));
  EXPECT_FALSE(rel.ContainsVisible(T(3, "pending1"), with_t0));
  EXPECT_EQ(rel.CountVisible(with_t0), 2u);

  EXPECT_EQ(rel.CountVisible(db.FullView()), 3u);
}

TEST(RelationTest, SharedTupleVisibleThroughEitherOwner) {
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  const TupleOwner t0 = db.RegisterOwner();
  // Same tuple contributed by base and by a pending transaction.
  rel.Insert(T(1, "x"), kBaseOwner);
  rel.Insert(T(1, "x"), t0);
  EXPECT_EQ(rel.num_tuples(), 1u);
  EXPECT_TRUE(rel.ContainsVisible(T(1, "x"), db.BaseView()));
  EXPECT_EQ(rel.owners(0).size(), 2u);
}

TEST(RelationTest, RestoreTupleRejectsOwnersBelowBase) {
  // Owner cells encode "no owners" and side lists below kBaseOwner, so a
  // restored owner list may not carry such a value.
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  db.RegisterOwner();
  EXPECT_FALSE(rel.RestoreTuple(T(1, "x"), {0, -2}).ok());
  EXPECT_FALSE(rel.RestoreTuple(T(1, "x"), {-3}).ok());
  EXPECT_EQ(rel.num_tuples(), 0u);
  ASSERT_TRUE(rel.RestoreTuple(T(1, "x"), {0, kBaseOwner}).ok());
  EXPECT_EQ(rel.owners(0).size(), 2u);
}

TEST(RelationTest, PromoteOwnerMakesTuplesBase) {
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  const TupleOwner t0 = db.RegisterOwner();
  rel.Insert(T(5, "p"), t0);
  EXPECT_FALSE(rel.ContainsVisible(T(5, "p"), db.BaseView()));
  rel.PromoteOwner(t0);
  EXPECT_TRUE(rel.ContainsVisible(T(5, "p"), db.BaseView()));
  EXPECT_TRUE(rel.TuplesOwnedBy(t0).empty());
}

TEST(RelationTest, DropOwnerHidesTuples) {
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  const TupleOwner t0 = db.RegisterOwner();
  rel.Insert(T(5, "p"), t0);
  rel.DropOwner(t0);
  EXPECT_FALSE(rel.ContainsVisible(T(5, "p"), db.FullView()));
  EXPECT_EQ(rel.num_tuples(), 1u);  // Storage retained, invisible.
}

TEST(RelationTest, TuplesOwnedBy) {
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  const TupleOwner t0 = db.RegisterOwner();
  rel.Insert(T(1, "a"), t0);
  rel.Insert(T(2, "b"), t0);
  EXPECT_EQ(rel.TuplesOwnedBy(t0).size(), 2u);
  EXPECT_TRUE(rel.TuplesOwnedBy(kBaseOwner).empty());
  EXPECT_TRUE(rel.TuplesOwnedBy(99).empty());
}

TEST(RelationTest, IndexLookup) {
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  rel.Insert(T(1, "x"), kBaseOwner);
  rel.Insert(T(1, "y"), kBaseOwner);
  rel.Insert(T(2, "x"), kBaseOwner);
  const std::size_t idx = rel.GetOrBuildIndex({0});
  EXPECT_EQ(rel.IndexLookup(idx, Tuple({Value::Int(1)})).size(), 2u);
  EXPECT_EQ(rel.IndexLookup(idx, Tuple({Value::Int(2)})).size(), 1u);
  EXPECT_TRUE(rel.IndexLookup(idx, Tuple({Value::Int(3)})).empty());
}

TEST(RelationTest, IndexMaintainedAcrossInserts) {
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  const std::size_t idx = rel.GetOrBuildIndex({1});
  rel.Insert(T(1, "k"), kBaseOwner);
  rel.Insert(T(2, "k"), kBaseOwner);
  EXPECT_EQ(rel.IndexLookup(idx, Tuple({Value::Str("k")})).size(), 2u);
}

TEST(RelationTest, SamePositionsReuseIndex) {
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  EXPECT_EQ(rel.GetOrBuildIndex({0, 1}), rel.GetOrBuildIndex({0, 1}));
  EXPECT_NE(rel.GetOrBuildIndex({0}), rel.GetOrBuildIndex({1}));
}

TEST(DatabaseTest, InsertValidatesSchema) {
  Database db(MakeCatalog());
  EXPECT_TRUE(db.Insert("R", T(1, "a")).ok());
  EXPECT_FALSE(db.Insert("R", Tuple({Value::Int(1)})).ok());
  EXPECT_EQ(db.Insert("missing", T(1, "a")).code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, TotalTuples) {
  Database db(MakeCatalog());
  ASSERT_TRUE(db.Insert("R", T(1, "a")).ok());
  ASSERT_TRUE(db.Insert("R", T(2, "b")).ok());
  EXPECT_EQ(db.TotalTuples(), 2u);
}

TEST(WorldViewTest, ActivationBasics) {
  WorldView view = WorldView::BaseOnly(8);
  EXPECT_TRUE(view.IsActive(kBaseOwner));
  EXPECT_FALSE(view.IsActive(3));
  view.Activate(3);
  EXPECT_TRUE(view.IsActive(3));
  EXPECT_EQ(view.NumActive(), 1u);
  view.Deactivate(3);
  EXPECT_FALSE(view.IsActive(3));
}

TEST(WorldViewTest, AllPendingSeesEverything) {
  WorldView view = WorldView::AllPending(4);
  for (TupleOwner o = 0; o < 4; ++o) EXPECT_TRUE(view.IsActive(o));
}

}  // namespace
}  // namespace bcdb
