#ifndef BCDB_TESTS_STORAGE_TEST_UTIL_H_
#define BCDB_TESTS_STORAGE_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/blockchain_db.h"
#include "relational/schema.h"

namespace bcdb {
namespace storage_test {

/// A self-deleting scratch directory under the system temp root.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = ::testing::TempDir() + "bcdb_store_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~ScratchDir() {
    if (!path_.empty()) {
      const std::string cmd = "rm -rf '" + path_ + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// ---- Fault-injection file helpers -----------------------------------------

inline std::uint64_t FileSize(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

/// XORs the byte at `offset` with 0x40 — a single-bit flip the checksums
/// must catch.
inline void FlipByte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  ASSERT_TRUE(f.good()) << path << " @" << offset;
  byte ^= 0x40;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
  ASSERT_TRUE(f.good());
}

/// Chops the last `n` bytes off the file (simulating a torn final write).
inline void TruncateFileBy(const std::string& path, std::uint64_t n) {
  const std::uint64_t size = FileSize(path);
  std::filesystem::resize_file(path, size - std::min(size, n));
}

inline void AppendBytesToFile(const std::string& path,
                              const std::string& bytes) {
  std::ofstream f(path, std::ios::app | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

/// Files in `dir` whose names end with `suffix`, sorted by name ascending
/// (seq-stamped names sort oldest-first).
inline std::vector<std::string> ListFilesWithSuffix(const std::string& dir,
                                                    const std::string& suffix) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// The two-relation test catalog shared by the storage suites (same shape
/// as the differential tests: R(a, b), S(x, y)).
inline Catalog MakeTestCatalog() {
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

/// Asserts `got` is id-for-id equivalent to `want`: same relation contents
/// in the same TupleId order with the same owner lists, same pending slots
/// in the same states, same version/seq clock.
inline void ExpectEquivalent(const BlockchainDatabase& want,
                             const BlockchainDatabase& got) {
  ASSERT_EQ(want.database().num_relations(), got.database().num_relations());
  for (std::size_t r = 0; r < want.database().num_relations(); ++r) {
    const Relation& rw = want.database().relation(r);
    const Relation& rg = got.database().relation(r);
    ASSERT_EQ(rw.num_tuples(), rg.num_tuples()) << "relation " << r;
    for (TupleId id = 0; id < rw.num_tuples(); ++id) {
      EXPECT_EQ(rw.tuple(id), rg.tuple(id))
          << "relation " << r << " tuple " << id;
      EXPECT_TRUE(std::ranges::equal(rw.owners(id), rg.owners(id)))
          << "relation " << r << " tuple " << id;
    }
  }
  ASSERT_EQ(want.num_pending(), got.num_pending());
  for (PendingId id = 0; id < want.num_pending(); ++id) {
    EXPECT_EQ(want.pending_state(id), got.pending_state(id)) << "slot " << id;
    EXPECT_EQ(want.PendingRelations(id), got.PendingRelations(id))
        << "slot " << id;
    EXPECT_EQ(want.pending(id).label(), got.pending(id).label())
        << "slot " << id;
    ASSERT_EQ(want.pending(id).size(), got.pending(id).size())
        << "slot " << id;
    for (std::size_t i = 0; i < want.pending(id).size(); ++i) {
      EXPECT_EQ(want.pending(id).items()[i].relation,
                got.pending(id).items()[i].relation);
      EXPECT_EQ(want.pending(id).items()[i].tuple,
                got.pending(id).items()[i].tuple);
    }
  }
  EXPECT_EQ(want.version(), got.version());
  EXPECT_EQ(want.mutations().end_seq(), got.mutations().end_seq());
  EXPECT_EQ(want.database().num_owners(), got.database().num_owners());
}

}  // namespace storage_test
}  // namespace bcdb

#endif  // BCDB_TESTS_STORAGE_TEST_UTIL_H_
