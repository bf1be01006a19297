// Unit tests for simfs::vfs — file stores and quota-tracked storage areas.
#include "common/strings.hpp"
#include "vfs/file_store.hpp"
#include "vfs/storage_area.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

namespace simfs::vfs {
namespace {

// ----------------------------------------------------------- MemFileStore

TEST(MemFileStoreTest, PutReadRoundTrip) {
  MemFileStore store;
  ASSERT_TRUE(store.put("a.snc", "hello").isOk());
  EXPECT_TRUE(store.exists("a.snc"));
  EXPECT_EQ(store.read("a.snc").value(), "hello");
}

TEST(MemFileStoreTest, StatReportsSizeAndChecksum) {
  MemFileStore store;
  ASSERT_TRUE(store.put("a.snc", "12345").isOk());
  const auto info = store.stat("a.snc");
  ASSERT_TRUE(info.isOk());
  EXPECT_EQ(info->size, 5u);
  EXPECT_NE(info->checksum, 0u);
}

TEST(MemFileStoreTest, RemoveAndMissing) {
  MemFileStore store;
  ASSERT_TRUE(store.put("a.snc", "x").isOk());
  EXPECT_TRUE(store.remove("a.snc").isOk());
  EXPECT_FALSE(store.exists("a.snc"));
  EXPECT_EQ(store.remove("a.snc").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.read("a.snc").status().code(), StatusCode::kNotFound);
}

TEST(MemFileStoreTest, ListSortedAndTotals) {
  MemFileStore store;
  ASSERT_TRUE(store.put("b", "22").isOk());
  ASSERT_TRUE(store.put("a", "1").isOk());
  const auto names = store.list();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(store.totalBytes(), 3u);
}

TEST(MemFileStoreTest, OverwriteReplacesContent) {
  MemFileStore store;
  ASSERT_TRUE(store.put("a", "old").isOk());
  ASSERT_TRUE(store.put("a", "newer").isOk());
  EXPECT_EQ(store.read("a").value(), "newer");
  EXPECT_EQ(store.totalBytes(), 5u);
}

// ---------------------------------------------------------- DiskFileStore

class DiskFileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("simfs_vfs_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::filesystem::path root_;
};

TEST_F(DiskFileStoreTest, PutReadRoundTrip) {
  DiskFileStore store(root_.string());
  ASSERT_TRUE(store.put("out_1.snc", "payload").isOk());
  EXPECT_EQ(store.read("out_1.snc").value(), "payload");
  EXPECT_TRUE(std::filesystem::exists(root_ / "out_1.snc"));
}

TEST_F(DiskFileStoreTest, RejectsPathTraversal) {
  DiskFileStore store(root_.string());
  EXPECT_EQ(store.put("../evil", "x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.put("a/b", "x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.put("", "x").code(), StatusCode::kInvalidArgument);
}

TEST_F(DiskFileStoreTest, ListAndTotalBytes) {
  DiskFileStore store(root_.string());
  ASSERT_TRUE(store.put("b", "4444").isOk());
  ASSERT_TRUE(store.put("a", "22").isOk());
  const auto names = store.list();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(store.totalBytes(), 6u);
}

TEST_F(DiskFileStoreTest, RemoveUnlinks) {
  DiskFileStore store(root_.string());
  ASSERT_TRUE(store.put("x", "1").isOk());
  ASSERT_TRUE(store.remove("x").isOk());
  EXPECT_FALSE(std::filesystem::exists(root_ / "x"));
  EXPECT_EQ(store.remove("x").code(), StatusCode::kNotFound);
}

TEST_F(DiskFileStoreTest, StatMatchesMemStoreChecksum) {
  DiskFileStore disk(root_.string());
  MemFileStore mem;
  ASSERT_TRUE(disk.put("f", "identical-bytes").isOk());
  ASSERT_TRUE(mem.put("f", "identical-bytes").isOk());
  EXPECT_EQ(disk.stat("f")->checksum, mem.stat("f")->checksum);
}

TEST_F(DiskFileStoreTest, RewriteWithShorterContentShrinksTheFile) {
  DiskFileStore store(root_.string());
  ASSERT_TRUE(store.put("f", "a much longer first version").isOk());
  ASSERT_TRUE(store.put("f", "short").isOk());
  EXPECT_EQ(store.read("f").value(), "short");
  EXPECT_EQ(std::filesystem::file_size(root_ / "f"), 5u);
}

TEST_F(DiskFileStoreTest, RewriteWithLongerContentExtendsTheFile) {
  DiskFileStore store(root_.string());
  ASSERT_TRUE(store.put("f", "short").isOk());
  ASSERT_TRUE(store.put("f", "a much longer second version").isOk());
  EXPECT_EQ(store.read("f").value(), "a much longer second version");
  EXPECT_EQ(store.totalBytes(), 28u);
}

TEST_F(DiskFileStoreTest, ConcurrentPutsOfDistinctNamesAllReadBack) {
  constexpr int kThreads = 8;
  constexpr int kNames = 64;
  DiskFileStore store(root_.string());
  const auto name = [](int t, int i) { return str::format("t%d_%d", t, i); };
  const auto content = [&name](int t, int i) {
    return std::string(100 + 7 * i, static_cast<char>('a' + t)) + name(t, i);
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kNames; ++i) {
        if (!store.put(name(t, i), content(t, i)).isOk()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kNames; ++i) {
      EXPECT_EQ(store.read(name(t, i)).value(), content(t, i));
    }
  }
}

// Same-name puts and reads exclude each other: without the per-name lock,
// concurrent pwrites at offset 0 interleave, and a read can see a mix.
TEST_F(DiskFileStoreTest, ConcurrentPutsOfOneNameNeverMixContents) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 32;
  DiskFileStore store(root_.string());
  std::vector<std::string> contents;
  for (int t = 0; t < kThreads; ++t) {
    contents.emplace_back(64 * 1024, static_cast<char>('A' + t));
  }
  const auto isOneWhole = [&contents](const std::string& got) {
    return std::find(contents.begin(), contents.end(), got) != contents.end();
  };
  std::atomic<int> failures{0};
  std::atomic<int> mixed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        if (!store.put("step", contents[t]).isOk()) ++failures;
        const auto got = store.read("step");
        if (!got.isOk()) {
          ++failures;
        } else if (!isOneWhole(*got)) {
          ++mixed;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mixed.load(), 0);
  EXPECT_TRUE(isOneWhole(store.read("step").value()));
}

// ------------------------------------------------------------ StorageArea

TEST(StorageAreaTest, TracksUsage) {
  StorageArea area("ctx", 100);
  ASSERT_TRUE(area.addFile("a", 40).isOk());
  ASSERT_TRUE(area.addFile("b", 50).isOk());
  EXPECT_EQ(area.used(), 90u);
  EXPECT_FALSE(area.overQuota());
  ASSERT_TRUE(area.addFile("c", 30).isOk());  // not enforced at add time
  EXPECT_TRUE(area.overQuota());
  EXPECT_EQ(area.excessBytes(), 20u);
}

TEST(StorageAreaTest, DuplicateAddRejected) {
  StorageArea area("ctx", 0);
  ASSERT_TRUE(area.addFile("a", 1).isOk());
  EXPECT_EQ(area.addFile("a", 1).code(), StatusCode::kAlreadyExists);
}

TEST(StorageAreaTest, RemoveRequiresZeroRefs) {
  StorageArea area("ctx", 0);
  ASSERT_TRUE(area.addFile("a", 10).isOk());
  ASSERT_TRUE(area.ref("a").isOk());
  EXPECT_EQ(area.removeFile("a").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(area.unref("a").isOk());
  EXPECT_TRUE(area.removeFile("a").isOk());
  EXPECT_EQ(area.used(), 0u);
}

TEST(StorageAreaTest, RefCountingAndEvictability) {
  StorageArea area("ctx", 0);
  ASSERT_TRUE(area.addFile("a", 1).isOk());
  EXPECT_TRUE(area.evictable("a"));
  ASSERT_TRUE(area.ref("a").isOk());
  ASSERT_TRUE(area.ref("a").isOk());
  EXPECT_EQ(area.refCount("a"), 2);
  EXPECT_FALSE(area.evictable("a"));
  ASSERT_TRUE(area.unref("a").isOk());
  ASSERT_TRUE(area.unref("a").isOk());
  EXPECT_TRUE(area.evictable("a"));
  EXPECT_EQ(area.unref("a").code(), StatusCode::kFailedPrecondition);
}

TEST(StorageAreaTest, UnknownFilesRejected) {
  StorageArea area("ctx", 0);
  EXPECT_EQ(area.ref("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(area.removeFile("nope").code(), StatusCode::kNotFound);
  EXPECT_FALSE(area.evictable("nope"));
  EXPECT_EQ(area.refCount("nope"), 0);
  EXPECT_EQ(area.sizeOf("nope"), 0u);
}

TEST(StorageAreaTest, UnlimitedQuotaNeverOver) {
  StorageArea area("ctx", 0);
  ASSERT_TRUE(area.addFile("big", 1'000'000'000).isOk());
  EXPECT_FALSE(area.overQuota());
  EXPECT_EQ(area.excessBytes(), 0u);
}

}  // namespace
}  // namespace simfs::vfs
