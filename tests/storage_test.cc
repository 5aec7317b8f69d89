#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/io_scope.h"
#include "storage/storage_manager.h"

namespace coconut {
namespace storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = MakeTempStorage("storage_test");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    mgr_ = r.TakeValue();
  }

  void TearDown() override {
    if (mgr_) { ASSERT_TRUE(mgr_->Clear().ok()); }
  }

  std::unique_ptr<StorageManager> mgr_;
};

TEST_F(StorageTest, CreateWriteReadPage) {
  auto fr = mgr_->CreateFile("a");
  ASSERT_TRUE(fr.ok());
  auto file = fr.TakeValue();

  Page out;
  std::memcpy(out.data(), "hello", 5);
  ASSERT_TRUE(file->WritePage(0, out).ok());
  EXPECT_EQ(file->size_bytes(), kPageSize);

  Page in;
  ASSERT_TRUE(file->ReadPage(0, &in).ok());
  EXPECT_EQ(std::memcmp(in.data(), "hello", 5), 0);
}

TEST_F(StorageTest, ReadPastEofFails) {
  auto file = mgr_->CreateFile("a").TakeValue();
  Page p;
  Status st = file->ReadPage(0, &p);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST_F(StorageTest, AppendAndReadAt) {
  auto file = mgr_->CreateFile("a").TakeValue();
  const std::string data = "0123456789";
  ASSERT_TRUE(file->Append(data.data(), data.size()).ok());
  ASSERT_TRUE(file->Append(data.data(), data.size()).ok());
  EXPECT_EQ(file->size_bytes(), 20u);

  char buf[10];
  ASSERT_TRUE(file->ReadAt(5, buf, 10).ok());
  EXPECT_EQ(std::memcmp(buf, "5678901234", 10), 0);
}

TEST_F(StorageTest, SequentialVsRandomClassification) {
  auto file = mgr_->CreateFile("a").TakeValue();
  Page p;
  // Pages 0,1,2 in order: first write starts at offset 0 == expected 0,
  // so all three are sequential.
  ASSERT_TRUE(file->WritePage(0, p).ok());
  ASSERT_TRUE(file->WritePage(1, p).ok());
  ASSERT_TRUE(file->WritePage(2, p).ok());
  EXPECT_EQ(mgr_->io_stats()->sequential_writes, 3u);
  EXPECT_EQ(mgr_->io_stats()->random_writes, 0u);

  // Jump back: random.
  ASSERT_TRUE(file->WritePage(0, p).ok());
  EXPECT_EQ(mgr_->io_stats()->random_writes, 1u);

  // Reads: 0 then 1 sequential, then 0 again random.
  ASSERT_TRUE(file->ReadPage(0, &p).ok());
  ASSERT_TRUE(file->ReadPage(1, &p).ok());
  ASSERT_TRUE(file->ReadPage(0, &p).ok());
  EXPECT_EQ(mgr_->io_stats()->sequential_reads, 2u);
  EXPECT_EQ(mgr_->io_stats()->random_reads, 1u);
}

TEST_F(StorageTest, IoStatsSinceSnapshot) {
  auto file = mgr_->CreateFile("a").TakeValue();
  Page p;
  ASSERT_TRUE(file->WritePage(0, p).ok());
  IoStats before = *mgr_->io_stats();
  ASSERT_TRUE(file->WritePage(1, p).ok());
  ASSERT_TRUE(file->ReadPage(0, &p).ok());
  IoStats delta = mgr_->io_stats()->Since(before);
  EXPECT_EQ(delta.total_writes(), 1u);
  EXPECT_EQ(delta.total_reads(), 1u);
}

TEST_F(StorageTest, OpenExistingFilePreservesContent) {
  {
    auto file = mgr_->CreateFile("persist").TakeValue();
    ASSERT_TRUE(file->Append("abc", 3).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  auto reopened = mgr_->OpenFile("persist").TakeValue();
  EXPECT_EQ(reopened->size_bytes(), 3u);
  char buf[3];
  ASSERT_TRUE(reopened->ReadAt(0, buf, 3).ok());
  EXPECT_EQ(std::memcmp(buf, "abc", 3), 0);
}

TEST_F(StorageTest, RemoveFileAndExists) {
  { auto f = mgr_->CreateFile("gone").TakeValue(); }
  EXPECT_TRUE(mgr_->Exists("gone"));
  ASSERT_TRUE(mgr_->RemoveFile("gone").ok());
  EXPECT_FALSE(mgr_->Exists("gone"));
  EXPECT_FALSE(mgr_->RemoveFile("gone").ok());
}

TEST_F(StorageTest, TotalBytesOnDisk) {
  auto a = mgr_->CreateFile("a").TakeValue();
  auto b = mgr_->CreateFile("b").TakeValue();
  Page p;
  ASSERT_TRUE(a->WritePage(0, p).ok());
  ASSERT_TRUE(b->WritePage(0, p).ok());
  ASSERT_TRUE(b->WritePage(1, p).ok());
  EXPECT_EQ(mgr_->TotalBytesOnDisk(), 3 * kPageSize);
}

TEST_F(StorageTest, IoScopeRecordsOnlyWhileAlive) {
  auto file = mgr_->CreateFile("a").TakeValue();
  Page p;
  ASSERT_TRUE(file->WritePage(0, p).ok());
  EXPECT_EQ(IoScope::Current(), nullptr);

  std::vector<AccessEvent> ev;
  {
    IoScope scope(/*capture_accesses=*/true);
    EXPECT_EQ(IoScope::Current(), &scope);
    ASSERT_TRUE(file->WritePage(1, p).ok());
    ASSERT_TRUE(file->ReadPage(0, &p).ok());
    EXPECT_EQ(scope.stats().total_writes(), 1u);
    EXPECT_EQ(scope.stats().total_reads(), 1u);
    ev = scope.accesses();
  }
  EXPECT_EQ(IoScope::Current(), nullptr);
  ASSERT_TRUE(file->WritePage(2, p).ok());

  ASSERT_EQ(ev.size(), 2u);
  EXPECT_TRUE(ev[0].is_write);
  EXPECT_EQ(ev[0].page_no, 1u);
  EXPECT_FALSE(ev[1].is_write);
  EXPECT_EQ(ev[1].page_no, 0u);
  EXPECT_LT(ev[0].sequence, ev[1].sequence);
  // The manager's shared counters see every access, scoped or not.
  EXPECT_EQ(mgr_->io_stats()->total_writes(), 3u);
}

TEST_F(StorageTest, IoScopesNestAndAbsorb) {
  auto file = mgr_->CreateFile("a").TakeValue();
  Page p;
  for (uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(file->WritePage(i, p).ok());

  IoScope outer(/*capture_accesses=*/true);
  ASSERT_TRUE(file->ReadPage(0, &p).ok());
  {
    IoScope inner(/*capture_accesses=*/true);
    EXPECT_EQ(IoScope::Current(), &inner);
    ASSERT_TRUE(file->ReadPage(2, &p).ok());  // First access: sequential.
    ASSERT_TRUE(file->ReadPage(0, &p).ok());  // A hop: random.
    EXPECT_EQ(inner.stats().sequential_reads, 1u);
    EXPECT_EQ(inner.stats().random_reads, 1u);
    EXPECT_EQ(outer.stats().total_reads(), 1u);
    outer.Absorb(inner);
  }
  EXPECT_EQ(IoScope::Current(), &outer);
  EXPECT_EQ(outer.stats().total_reads(), 3u);
  // The outer head is still its own: page 1 continues its read of page 0.
  ASSERT_TRUE(file->ReadPage(1, &p).ok());
  EXPECT_EQ(outer.stats().sequential_reads, 3u);
  EXPECT_EQ(outer.stats().random_reads, 1u);
  ASSERT_EQ(outer.accesses().size(), 4u);
  EXPECT_EQ(outer.accesses()[1].page_no, 2u);
  EXPECT_EQ(outer.accesses()[3].page_no, 1u);
}

// Two threads read the same file at once; each thread's scope must hold
// exactly its own reads, classified against its own head.
TEST_F(StorageTest, IoScopesOfConcurrentThreadsStayApart) {
  auto file = mgr_->CreateFile("a").TakeValue();
  Page p;
  constexpr uint64_t kPages = 64;
  for (uint64_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(file->WritePage(i, p).ok());
  }
  constexpr int kRounds = 50;
  IoStats sequential_stats;
  IoStats strided_stats;
  std::thread sequential([&] {
    IoScope scope;
    Page page;
    for (int r = 0; r < kRounds; ++r) {
      for (uint64_t i = 0; i < kPages; ++i) {
        ASSERT_TRUE(file->ReadPage(i, &page).ok());
      }
    }
    sequential_stats = scope.stats();
  });
  std::thread strided([&] {
    IoScope scope;
    Page page;
    for (int r = 0; r < kRounds; ++r) {
      for (uint64_t i = 0; i < kPages; i += 2) {
        ASSERT_TRUE(file->ReadPage(i, &page).ok());
      }
    }
    strided_stats = scope.stats();
  });
  sequential.join();
  strided.join();

  // One scan after another: only each round's restart at page 0 hops.
  EXPECT_EQ(sequential_stats.total_reads(), kRounds * kPages);
  EXPECT_EQ(sequential_stats.random_reads, kRounds - 1u);
  EXPECT_EQ(sequential_stats.bytes_read, kRounds * kPages * kPageSize);
  // Every read but the first skips a page.
  EXPECT_EQ(strided_stats.total_reads(), kRounds * kPages / 2);
  EXPECT_EQ(strided_stats.sequential_reads, 1u);
  EXPECT_EQ(strided_stats.bytes_read, kRounds * kPages / 2 * kPageSize);
  EXPECT_EQ(mgr_->SnapshotIoStats().total_reads(),
            kRounds * kPages + kRounds * kPages / 2);
}

// ----------------------------------------------------- durability primitives
// The write-ahead log is built on exactly three promises from this layer:
// Truncate is exact (cut or zero-extend), RenameFile atomically replaces
// the target and syncs the directory, and FsyncDir makes created names
// durable. Pin each one.

TEST_F(StorageTest, TruncateCutsExactlyAndZeroExtends) {
  auto file = mgr_->CreateFile("t").TakeValue();
  ASSERT_TRUE(file->Append("0123456789", 10).ok());

  ASSERT_TRUE(file->Truncate(4).ok());
  EXPECT_EQ(file->size_bytes(), 4u);
  char buf[4];
  ASSERT_TRUE(file->ReadAt(0, buf, 4).ok());
  EXPECT_EQ(std::memcmp(buf, "0123", 4), 0);
  EXPECT_EQ(file->ReadAt(2, buf, 4).code(), StatusCode::kOutOfRange)
      << "bytes past the truncation point must be unreadable";

  // Extending re-adds the range as zeros, not stale bytes.
  ASSERT_TRUE(file->Truncate(8).ok());
  char ext[8];
  ASSERT_TRUE(file->ReadAt(0, ext, 8).ok());
  EXPECT_EQ(std::memcmp(ext, "0123\0\0\0\0", 8), 0);

  // Appends resume at the truncated size, not the old EOF.
  ASSERT_TRUE(file->Append("ab", 2).ok());
  EXPECT_EQ(file->size_bytes(), 10u);
  char tail[2];
  ASSERT_TRUE(file->ReadAt(8, tail, 2).ok());
  EXPECT_EQ(std::memcmp(tail, "ab", 2), 0);
}

TEST_F(StorageTest, TruncateToZeroThenReopen) {
  {
    auto file = mgr_->CreateFile("t").TakeValue();
    ASSERT_TRUE(file->Append("payload", 7).ok());
    ASSERT_TRUE(file->Truncate(0).ok());
    EXPECT_EQ(file->size_bytes(), 0u);
    ASSERT_TRUE(file->Sync().ok());
  }
  auto reopened = mgr_->OpenFile("t").TakeValue();
  EXPECT_EQ(reopened->size_bytes(), 0u);
}

TEST_F(StorageTest, RenameFileReplacesTargetAtomically) {
  {
    auto next = mgr_->CreateFile("wal.next").TakeValue();
    ASSERT_TRUE(next->Append("new", 3).ok());
    ASSERT_TRUE(next->Sync().ok());
    auto old = mgr_->CreateFile("wal").TakeValue();
    ASSERT_TRUE(old->Append("old-old", 7).ok());
    ASSERT_TRUE(old->Sync().ok());
  }

  ASSERT_TRUE(mgr_->RenameFile("wal.next", "wal").ok());
  EXPECT_FALSE(mgr_->Exists("wal.next"));
  ASSERT_TRUE(mgr_->Exists("wal"));
  auto swapped = mgr_->OpenFile("wal").TakeValue();
  EXPECT_EQ(swapped->size_bytes(), 3u);
  char buf[3];
  ASSERT_TRUE(swapped->ReadAt(0, buf, 3).ok());
  EXPECT_EQ(std::memcmp(buf, "new", 3), 0);
}

TEST_F(StorageTest, RenameFileMissingSourceFails) {
  EXPECT_EQ(mgr_->RenameFile("nope", "wal").code(), StatusCode::kIoError);
  EXPECT_FALSE(mgr_->Exists("wal"));
}

TEST_F(StorageTest, FsyncDirAndSyncDir) {
  { auto f = mgr_->CreateFile("a").TakeValue(); }
  EXPECT_TRUE(FsyncDir(mgr_->directory()).ok());
  EXPECT_TRUE(mgr_->SyncDir().ok());
  EXPECT_EQ(FsyncDir(mgr_->directory() + "/definitely-missing").code(),
            StatusCode::kIoError);
}

TEST_F(StorageTest, SyncAndDataSyncPersistAppends) {
  {
    auto file = mgr_->CreateFile("d").TakeValue();
    ASSERT_TRUE(file->Append("abc", 3).ok());
    ASSERT_TRUE(file->DataSync().ok());
    ASSERT_TRUE(file->Append("def", 3).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  auto reopened = mgr_->OpenFile("d").TakeValue();
  EXPECT_EQ(reopened->size_bytes(), 6u);
  char buf[6];
  ASSERT_TRUE(reopened->ReadAt(0, buf, 6).ok());
  EXPECT_EQ(std::memcmp(buf, "abcdef", 6), 0);
}

// ---------------------------------------------------------------- BufferPool

TEST_F(StorageTest, BufferPoolCachesPages) {
  auto file = mgr_->CreateFile("a").TakeValue();
  Page p;
  std::memcpy(p.data(), "xyz", 3);
  ASSERT_TRUE(file->WritePage(0, p).ok());

  BufferPool pool(16 * kPageSize);
  Page r1;
  ASSERT_TRUE(pool.ReadPage(file.get(), 0, &r1).ok());
  EXPECT_EQ(std::memcmp(r1.data(), "xyz", 3), 0);
  EXPECT_EQ(pool.misses(), 1u);

  Page r2;
  ASSERT_TRUE(pool.ReadPage(file.get(), 0, &r2).ok());
  EXPECT_EQ(std::memcmp(r2.data(), "xyz", 3), 0);
  EXPECT_EQ(pool.hits(), 1u);
  // Second fetch must not touch the file again.
  EXPECT_EQ(mgr_->io_stats()->total_reads(), 1u);
}

TEST_F(StorageTest, BufferPoolEvictsLru) {
  auto file = mgr_->CreateFile("a").TakeValue();
  Page p;
  for (uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(file->WritePage(i, p).ok());

  BufferPool pool(2 * kPageSize);  // Capacity: 2 pages.
  ASSERT_TRUE(pool.ReadPage(file.get(), 0, &p).ok());
  ASSERT_TRUE(pool.ReadPage(file.get(), 1, &p).ok());
  ASSERT_TRUE(pool.ReadPage(file.get(), 2, &p).ok());  // Evicts page 0.
  EXPECT_EQ(pool.cached_pages(), 2u);
  ASSERT_TRUE(pool.ReadPage(file.get(), 0, &p).ok());  // Miss again.
  EXPECT_EQ(pool.misses(), 4u);
  EXPECT_EQ(pool.hits(), 0u);
}

TEST_F(StorageTest, BufferPoolInvalidate) {
  auto file = mgr_->CreateFile("a").TakeValue();
  Page p;
  std::memcpy(p.data(), "old", 3);
  ASSERT_TRUE(file->WritePage(0, p).ok());

  BufferPool pool(4 * kPageSize);
  ASSERT_TRUE(pool.ReadPage(file.get(), 0, &p).ok());

  std::memcpy(p.data(), "new", 3);
  ASSERT_TRUE(file->WritePage(0, p).ok());
  pool.Invalidate(file->file_id());

  Page r;
  ASSERT_TRUE(pool.ReadPage(file.get(), 0, &r).ok());
  EXPECT_EQ(std::memcmp(r.data(), "new", 3), 0);
}

TEST_F(StorageTest, BufferPoolErrorOnMissingPage) {
  auto file = mgr_->CreateFile("a").TakeValue();
  BufferPool pool(4 * kPageSize);
  Page p;
  EXPECT_FALSE(pool.ReadPage(file.get(), 5, &p).ok());
  // Failed fetch must not leave a frame behind.
  EXPECT_EQ(pool.cached_pages(), 0u);
}

// Eight readers share a pool far smaller than the file, so nearly every
// read evicts a frame some other reader just used. Every page read must
// still be byte-exact: a hit hands out a copy, never a frame pointer.
TEST_F(StorageTest, BufferPoolConcurrentReadersSeeExactPages) {
  auto file = mgr_->CreateFile("a").TakeValue();
  constexpr uint64_t kPages = 32;
  auto fill = [](uint64_t page_no, Page* page) {
    for (size_t b = 0; b < kPageSize; ++b) {
      page->data()[b] = static_cast<uint8_t>(page_no * 131 + b * 7);
    }
  };
  for (uint64_t i = 0; i < kPages; ++i) {
    Page p;
    fill(i, &p);
    ASSERT_TRUE(file->WritePage(i, p).ok());
  }

  BufferPool pool(2 * kPageSize);
  constexpr int kThreads = 8;
  constexpr int kReads = 2000;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  std::vector<uint64_t> scoped_reads(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      IoScope scope;
      Page got;
      Page want;
      for (int r = 0; r < kReads; ++r) {
        // Small hot set (pages 0-2) mixed with a sweep, so hits and
        // evictions interleave across threads.
        const uint64_t page_no =
            (r % 3 == 0) ? static_cast<uint64_t>(r / 3 + t) % kPages
                         : static_cast<uint64_t>(r + t) % 3;
        if (!pool.ReadPage(file.get(), page_no, &got).ok()) {
          ++failures[t];
          continue;
        }
        fill(page_no, &want);
        if (std::memcmp(got.data(), want.data(), kPageSize) != 0) {
          ++mismatches[t];
        }
      }
      scoped_reads[t] = scope.stats().total_reads();
    });
  }
  for (auto& th : threads) th.join();

  uint64_t file_reads = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    file_reads += scoped_reads[t];
  }
  // Each miss is one file read, charged to the reader that missed.
  EXPECT_EQ(pool.hits() + pool.misses(),
            static_cast<uint64_t>(kThreads) * kReads);
  EXPECT_EQ(file_reads, pool.misses());
  EXPECT_EQ(mgr_->SnapshotIoStats().total_reads(), pool.misses());
  EXPECT_LE(pool.cached_pages(), 2u);
}

TEST_F(StorageTest, PageTypedReadWrite) {
  Page p;
  p.Write<uint64_t>(8, 0xDEADBEEFULL);
  p.Write<double>(16, 2.5);
  EXPECT_EQ(p.Read<uint64_t>(8), 0xDEADBEEFULL);
  EXPECT_EQ(p.Read<double>(16), 2.5);
}

}  // namespace
}  // namespace storage
}  // namespace coconut
