// Model-based fuzzing of the Relation storage layer: a naive reference
// model (plain vectors of (tuple, owner-set)) runs the same random
// operation sequence — inserts with random owners, promotions, drops — and
// every few steps the visible-tuple sets and index lookups must agree. A
// second case adds per-tuple owner removal, demotion and restore, and
// checks every tuple's owner list in order against an ordered reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "relational/database.h"
#include "util/rng.h"

namespace bcdb {
namespace {

class ReferenceModel {
 public:
  void Insert(const Tuple& tuple, TupleOwner owner) {
    owners_[Key(tuple)].insert(owner);
  }

  void PromoteOwner(TupleOwner owner) {
    for (auto& [key, owners] : owners_) {
      if (owners.erase(owner) > 0) owners.insert(kBaseOwner);
    }
  }

  void DropOwner(TupleOwner owner) {
    for (auto& [key, owners] : owners_) owners.erase(owner);
  }

  std::set<std::string> Visible(const WorldView& view) const {
    std::set<std::string> result;
    for (const auto& [key, owners] : owners_) {
      for (TupleOwner owner : owners) {
        if (view.IsActive(owner)) {
          result.insert(key);
          break;
        }
      }
    }
    return result;
  }

 private:
  static std::string Key(const Tuple& tuple) { return tuple.ToString(); }
  std::map<std::string, std::set<TupleOwner>> owners_;
};

Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  return catalog;
}

std::set<std::string> VisibleInRelation(const Relation& rel,
                                        const WorldView& view) {
  std::set<std::string> result;
  rel.ForEachVisible(view, [&](TupleId id) {
    result.insert(rel.tuple(id).ToString());
  });
  return result;
}

class RelationModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RelationModelTest, AgreesWithReferenceModel) {
  Xoshiro256 rng(GetParam());
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  ReferenceModel model;

  const std::size_t num_owners = 4;
  for (std::size_t i = 0; i < num_owners; ++i) db.RegisterOwner();
  // A fixed index, created up front so inserts must maintain it.
  const std::size_t index = rel.GetOrBuildIndex({0});

  auto random_view = [&](Xoshiro256& r) {
    WorldView view = db.BaseView();
    for (std::size_t o = 0; o < num_owners; ++o) {
      if (r.NextBool(0.5)) view.Activate(static_cast<TupleOwner>(o));
    }
    return view;
  };

  for (int step = 0; step < 300; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.75) {
      const Tuple tuple({Value::Int(rng.NextInRange(0, 5)),
                         Value::Int(rng.NextInRange(0, 3))});
      const TupleOwner owner =
          rng.NextBool(0.3)
              ? kBaseOwner
              : static_cast<TupleOwner>(rng.NextBelow(num_owners));
      rel.Insert(tuple, owner);
      model.Insert(tuple, owner);
    } else if (dice < 0.85) {
      const TupleOwner owner =
          static_cast<TupleOwner>(rng.NextBelow(num_owners));
      rel.PromoteOwner(owner);
      model.PromoteOwner(owner);
    } else if (dice < 0.95) {
      const TupleOwner owner =
          static_cast<TupleOwner>(rng.NextBelow(num_owners));
      rel.DropOwner(owner);
      model.DropOwner(owner);
    } else {
      // Checkpoint: compare several random views plus base and full.
      std::vector<WorldView> views = {db.BaseView(), db.FullView()};
      for (int i = 0; i < 3; ++i) views.push_back(random_view(rng));
      for (const WorldView& view : views) {
        EXPECT_EQ(VisibleInRelation(rel, view), model.Visible(view))
            << "step " << step;
        EXPECT_EQ(rel.CountVisible(view), model.Visible(view).size());
      }
      // Index lookups cover every stored tuple with a matching key.
      for (std::int64_t a = 0; a <= 5; ++a) {
        std::set<std::string> via_index;
        for (TupleId id : rel.IndexLookup(index, Tuple({Value::Int(a)}))) {
          if (rel.IsVisible(id, views[1])) {
            via_index.insert(rel.tuple(id).ToString());
          }
        }
        std::set<std::string> via_scan;
        rel.ForEachVisible(views[1], [&](TupleId id) {
          if (rel.tuple(id)[0] == Value::Int(a)) {
            via_scan.insert(rel.tuple(id).ToString());
          }
        });
        EXPECT_EQ(via_index, via_scan) << "a=" << a << " step " << step;
      }
    }
  }
}

/// Reference for owner lists in order: tuples in TupleId order, each with
/// its owners in the order they were added, erased in place.
class OrderedOwnersModel {
 public:
  void Insert(const Tuple& tuple, TupleOwner owner) {
    auto it = ids_.find(tuple.ToString());
    if (it == ids_.end()) {
      ids_.emplace(tuple.ToString(), owners_.size());
      tuples_.push_back(tuple);
      owners_.push_back({owner});
    } else if (!Contains(owners_[it->second], owner)) {
      owners_[it->second].push_back(owner);
    }
  }

  bool Restore(const Tuple& tuple, const std::vector<TupleOwner>& owners) {
    if (ids_.count(tuple.ToString()) > 0) return false;
    for (std::size_t i = 0; i < owners.size(); ++i) {
      for (std::size_t j = i + 1; j < owners.size(); ++j) {
        if (owners[i] == owners[j]) return false;
      }
    }
    ids_.emplace(tuple.ToString(), owners_.size());
    tuples_.push_back(tuple);
    owners_.push_back(owners);
    return true;
  }

  void PromoteOwner(TupleOwner owner) {
    for (std::vector<TupleOwner>& owners : owners_) {
      if (Erase(owners, owner) && !Contains(owners, kBaseOwner)) {
        owners.push_back(kBaseOwner);
      }
    }
  }

  void DropOwner(TupleOwner owner) {
    for (std::vector<TupleOwner>& owners : owners_) Erase(owners, owner);
  }

  bool RemoveTupleOwner(const Tuple& tuple, TupleOwner owner) {
    auto it = ids_.find(tuple.ToString());
    return it != ids_.end() && Erase(owners_[it->second], owner);
  }

  bool DemoteTuple(const Tuple& tuple, TupleOwner owner) {
    if (!RemoveTupleOwner(tuple, kBaseOwner)) return false;
    Insert(tuple, owner);
    return true;
  }

  const std::vector<Tuple>& tuples() const { return tuples_; }
  const std::vector<std::vector<TupleOwner>>& owners() const {
    return owners_;
  }

 private:
  static bool Contains(const std::vector<TupleOwner>& owners,
                       TupleOwner owner) {
    return std::find(owners.begin(), owners.end(), owner) != owners.end();
  }

  static bool Erase(std::vector<TupleOwner>& owners, TupleOwner owner) {
    auto pos = std::find(owners.begin(), owners.end(), owner);
    if (pos == owners.end()) return false;
    owners.erase(pos);
    return true;
  }

  std::map<std::string, std::size_t> ids_;
  std::vector<Tuple> tuples_;
  std::vector<std::vector<TupleOwner>> owners_;
};

/// Expects `rel` to hold the model's tuples in TupleId order with the same
/// owner lists, element by element, and the same owner-to-tuple index.
void ExpectSameOwners(const Relation& rel, const OrderedOwnersModel& model,
                      std::size_t num_owners, const std::string& where) {
  ASSERT_EQ(rel.num_tuples(), model.tuples().size()) << where;
  for (TupleId id = 0; id < rel.num_tuples(); ++id) {
    EXPECT_EQ(rel.tuple(id), model.tuples()[id]) << where << " tuple " << id;
    const std::vector<TupleOwner> got(rel.owners(id).begin(),
                                      rel.owners(id).end());
    EXPECT_EQ(got, model.owners()[id]) << where << " tuple " << id;
  }
  for (TupleOwner owner = kBaseOwner;
       owner < static_cast<TupleOwner>(num_owners); ++owner) {
    std::vector<TupleId> got = rel.TuplesOwnedBy(owner);
    std::sort(got.begin(), got.end());
    std::vector<TupleId> want;
    for (TupleId id = 0; id < model.owners().size(); ++id) {
      const std::vector<TupleOwner>& owners = model.owners()[id];
      if (std::find(owners.begin(), owners.end(), owner) != owners.end()) {
        want.push_back(id);
      }
    }
    EXPECT_EQ(got, want) << where << " owner " << owner;
  }
}

TEST_P(RelationModelTest, OwnerListsMatchOrderedReference) {
  Xoshiro256 rng(GetParam());
  Database db(MakeCatalog());
  Relation& rel = db.relation(0);
  OrderedOwnersModel model;
  const std::size_t num_owners = 4;
  for (std::size_t i = 0; i < num_owners; ++i) db.RegisterOwner();
  std::string where;

  // Each operation runs on both sides, which must then agree throughout.
  auto insert = [&](const Tuple& tuple, TupleOwner owner) {
    rel.Insert(tuple, owner);
    model.Insert(tuple, owner);
    ExpectSameOwners(rel, model, num_owners, where);
  };
  auto promote = [&](TupleOwner owner) {
    rel.PromoteOwner(owner);
    model.PromoteOwner(owner);
    ExpectSameOwners(rel, model, num_owners, where);
  };
  auto drop = [&](TupleOwner owner) {
    rel.DropOwner(owner);
    model.DropOwner(owner);
    ExpectSameOwners(rel, model, num_owners, where);
  };
  auto remove = [&](const Tuple& tuple, TupleOwner owner) {
    EXPECT_EQ(rel.RemoveTupleOwner(tuple, owner),
              model.RemoveTupleOwner(tuple, owner))
        << where;
    ExpectSameOwners(rel, model, num_owners, where);
  };
  auto demote = [&](const Tuple& tuple, TupleOwner owner) {
    EXPECT_EQ(rel.DemoteTuple(tuple, owner), model.DemoteTuple(tuple, owner))
        << where;
    ExpectSameOwners(rel, model, num_owners, where);
  };
  auto restore = [&](const Tuple& tuple,
                     const std::vector<TupleOwner>& owners) {
    EXPECT_EQ(rel.RestoreTuple(tuple, owners).ok(),
              model.Restore(tuple, owners))
        << where;
    ExpectSameOwners(rel, model, num_owners, where);
  };
  auto tuple_of = [](std::int64_t a, std::int64_t b) {
    return Tuple({Value::Int(a), Value::Int(b)});
  };

  // Scripted: t goes from 1 to 3 to 0 to 2 owners, v takes and frees a
  // second overflow list, and both freed lists are then reused.
  where = "script";
  const Tuple t = tuple_of(100, 0);
  const Tuple u = tuple_of(100, 1);
  const Tuple v = tuple_of(100, 2);
  insert(t, 0);
  insert(u, 0);
  insert(v, 1);
  insert(t, 1);
  insert(t, 2);
  insert(v, 2);
  drop(1);
  remove(t, 0);
  remove(t, 2);
  EXPECT_TRUE(rel.owners(0).empty());
  insert(t, 3);
  insert(t, kBaseOwner);
  insert(u, 3);
  demote(t, 0);
  promote(3);
  ASSERT_EQ(model.owners()[0], (std::vector<TupleOwner>{0, kBaseOwner}));

  auto random_tuple = [&] {
    return tuple_of(rng.NextInRange(0, 5), rng.NextInRange(0, 3));
  };
  auto random_owner = [&] {
    return static_cast<TupleOwner>(rng.NextBelow(num_owners));
  };
  for (int step = 0; step < 300; ++step) {
    where = "step " + std::to_string(step);
    const double dice = rng.NextDouble();
    const Tuple tuple = random_tuple();
    const TupleOwner owner = random_owner();
    const TupleOwner any_owner = rng.NextBool(0.3) ? kBaseOwner : owner;
    if (dice < 0.45) {
      insert(tuple, any_owner);
    } else if (dice < 0.52) {
      promote(owner);
    } else if (dice < 0.59) {
      drop(owner);
    } else if (dice < 0.77) {
      remove(tuple, any_owner);
    } else if (dice < 0.92) {
      demote(tuple, owner);
    } else {
      // Up to four owners, possibly repeating one (which both reject).
      std::vector<TupleOwner> owners;
      for (std::size_t k = rng.NextBelow(5); k > 0; --k) {
        owners.push_back(rng.NextBool(0.2) ? kBaseOwner : random_owner());
      }
      restore(tuple_of(rng.NextInRange(0, 7), 4), owners);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationModelTest,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace bcdb
