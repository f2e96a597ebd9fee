// Golden-digest pin of DCSat verdicts and witnesses.
//
// The flat open-addressing tables must not change any observable result:
// verdicts, witnesses and search statistics on identical inputs are those
// the std::unordered containers produced when both backends were built
// and matched this digest. This test runs a 30-seed randomized end-to-end
// churn — AddPending / ApplyPending / DiscardPending interleaved with
// engine checks and monitor polls — and folds every observable into one
// 64-bit digest, compared against that golden constant.
//
// The digest deliberately covers only backend-independent observables
// (verdict booleans, witness PendingId sets, structural counts) — never
// hash values, iteration orders, or addresses. If an engine change
// legitimately alters results, re-record kGoldenDigest from a default
// (flat-table) build and note it in the commit.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/dcsat.h"
#include "core/monitor.h"
#include "query/parser.h"
#include "util/hash.h"
#include "util/rng.h"

namespace bcdb {
namespace {

/// Golden digest over all 30 seeds, reproduced bit-exactly by the
/// flat-table and the std::unordered builds alike.
constexpr std::uint64_t kGoldenDigest = 0xaf4f02fa85061b3fULL;

class Digest {
 public:
  void Mix(std::uint64_t x) {
    state_ = HashMix64(state_ ^ HashMix64(x + 0x9e3779b97f4a7c15ULL));
  }
  void Mix(bool b) { Mix(static_cast<std::uint64_t>(b ? 1 : 2)); }
  void Mix(const std::vector<PendingId>& ids) {
    Mix(static_cast<std::uint64_t>(ids.size()));
    for (PendingId id : ids) Mix(static_cast<std::uint64_t>(id));
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0x5bf03635aca31a6fULL;
};

Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "R", {Attribute{"a", ValueType::kInt, false},
                            Attribute{"b", ValueType::kInt, false}}))
                  .ok());
  EXPECT_TRUE(catalog
                  .AddRelation(RelationSchema(
                      "S", {Attribute{"x", ValueType::kInt, false},
                            Attribute{"y", ValueType::kInt, true}}))
                  .ok());
  return catalog;
}

BlockchainDatabase MakeInstance(Xoshiro256& rng, bool with_ind) {
  Catalog catalog = MakeCatalog();
  ConstraintSet constraints;
  auto key = FunctionalDependency::Key(catalog, "R", {"a"});
  EXPECT_TRUE(key.ok());
  constraints.AddFd(std::move(*key));
  if (with_ind) {
    auto ind = InclusionDependency::Create(catalog, "S", {"x"}, "R", {"a"});
    EXPECT_TRUE(ind.ok());
    constraints.AddInd(std::move(*ind));
  }
  auto db =
      BlockchainDatabase::Create(std::move(catalog), std::move(constraints));
  EXPECT_TRUE(db.ok());
  const std::size_t base_r = rng.NextBelow(3);
  for (std::size_t a = 0; a < base_r; ++a) {
    EXPECT_TRUE(db->InsertCurrent(
                      "R", Tuple({Value::Int(static_cast<std::int64_t>(a)),
                                  Value::Int(rng.NextInRange(0, 3))}))
                    .ok());
  }
  return std::move(*db);
}

Transaction RandomTxn(Xoshiro256& rng, std::size_t ordinal) {
  Transaction txn("P" + std::to_string(ordinal));
  const std::size_t num_tuples = 1 + rng.NextBelow(2);
  for (std::size_t i = 0; i < num_tuples; ++i) {
    if (rng.NextBool(0.5)) {
      txn.Add("R", Tuple({Value::Int(rng.NextInRange(0, 5)),
                          Value::Int(rng.NextInRange(0, 3))}));
    } else {
      txn.Add("S", Tuple({Value::Int(rng.NextInRange(0, 5)),
                          Value::Int(rng.NextInRange(0, 3))}));
    }
  }
  return txn;
}

const char* kEngineQueries[] = {
    "q() :- R(x, y)",
    "q() :- R(0, y)",
    "q() :- R(x, y), S(x, z)",
    "q() :- R(x, 1), S(x, 2)",
    "q() :- R(x, y), S(x, z), y < z",
    "[q(sum(y)) :- S(x, y)] >= 4",
};

const char* kMonitorQueries[] = {
    "q() :- R(x, y)",
    "q() :- R(x, 2)",
    "q() :- R(x, y), S(x, z)",
    "q() :- S(3, y)",
};

void DigestChecks(DcSatEngine& engine, Digest& digest) {
  DcSatOptions default_options;
  DcSatOptions search_options;  // Force the clique search everywhere.
  search_options.use_precheck = false;
  search_options.use_covers = false;
  for (const char* text : kEngineQueries) {
    auto q = ParseDenialConstraint(text);
    ASSERT_TRUE(q.ok()) << text;
    // Requested explicitly, the general search kAuto resolves to never
    // tries a tractable fragment.
    search_options.algorithm = GeneralSearchAlgorithm(
        *q, AnalyzeQuery(*q, engine.db().catalog()));
    for (const DcSatOptions& options : {default_options, search_options}) {
      auto result = engine.Check(*q, options);
      ASSERT_TRUE(result.ok()) << text;
      digest.Mix(result->decided);
      digest.Mix(result->satisfied);
      digest.Mix(result->witness.has_value());
      if (result->witness) digest.Mix(*result->witness);
      digest.Mix(static_cast<std::uint64_t>(result->stats.algorithm_used));
      digest.Mix(result->stats.precheck_decided);
      digest.Mix(static_cast<std::uint64_t>(result->stats.num_valid_nodes));
      digest.Mix(static_cast<std::uint64_t>(result->stats.fd_conflict_pairs));
      digest.Mix(static_cast<std::uint64_t>(result->stats.num_components));
      digest.Mix(
          static_cast<std::uint64_t>(result->stats.num_components_covered));
      digest.Mix(static_cast<std::uint64_t>(result->stats.num_cliques));
      digest.Mix(
          static_cast<std::uint64_t>(result->stats.num_worlds_evaluated));
    }
  }
}

void DigestMonitor(ConstraintMonitor& monitor,
                   const std::vector<MonitorHandle>& handles, Digest& digest) {
  ASSERT_TRUE(monitor.Poll().ok());
  for (MonitorHandle handle : handles) {
    digest.Mix(static_cast<std::uint64_t>(monitor.verdict(handle)));
  }
}

TEST(HashBackendDifferentialTest, ThirtySeedChurnMatchesGoldenDigest) {
  Digest digest;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    for (bool with_ind : {false, true}) {
      Xoshiro256 rng(seed * 2 + (with_ind ? 1 : 0));
      BlockchainDatabase db = MakeInstance(rng, with_ind);
      DcSatEngine engine(&db);
      ConstraintMonitor monitor(&db);
      std::vector<MonitorHandle> handles;
      for (const char* text : kMonitorQueries) {
        auto handle = monitor.Add(text, text);
        ASSERT_TRUE(handle.ok()) << text;
        handles.push_back(*handle);
      }

      std::size_t next_ordinal = 0;
      std::vector<PendingId> live;
      const std::size_t initial = 2 + rng.NextBelow(3);
      for (std::size_t i = 0; i < initial; ++i) {
        auto id = db.AddPending(RandomTxn(rng, next_ordinal++));
        ASSERT_TRUE(id.ok());
        live.push_back(*id);
      }

      for (int step = 0; step < 10; ++step) {
        const std::size_t op = rng.NextBelow(3);
        if (op == 0 || live.empty()) {
          auto id = db.AddPending(RandomTxn(rng, next_ordinal++));
          ASSERT_TRUE(id.ok());
          live.push_back(*id);
          digest.Mix(static_cast<std::uint64_t>(*id));
        } else {
          const std::size_t pick = rng.NextBelow(live.size());
          const PendingId id = live[pick];
          if (op == 1 && db.ApplyPending(id).ok()) {
            digest.Mix(std::uint64_t{0xA11ED});
          } else {
            ASSERT_TRUE(db.DiscardPending(id).ok());
            digest.Mix(std::uint64_t{0xD15C});
          }
          live.erase(live.begin() + pick);
        }
        DigestChecks(engine, digest);
        DigestMonitor(monitor, handles, digest);
      }
    }
  }
  EXPECT_EQ(digest.value(), kGoldenDigest)
      << "digest 0x" << std::hex << digest.value() << " — verdicts/witnesses "
      << "diverged between hash-table backends (or the engine legitimately "
      << "changed; re-record from a default build).";
}

}  // namespace
}  // namespace bcdb
