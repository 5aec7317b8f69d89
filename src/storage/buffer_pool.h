#ifndef COCONUT_STORAGE_BUFFER_POOL_H_
#define COCONUT_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/status.h"
#include "storage/file.h"
#include "storage/page.h"

namespace coconut {
namespace storage {

/// LRU page cache with a byte budget. Index query paths read leaf and
/// internal pages through the pool, so the "available main memory budget"
/// knob of the Palm GUI caps both construction (external-sort budget) and
/// query-time caching.
///
/// The pool is read-only from the caller's perspective: pages are fetched,
/// never mutated in cache. Writers go directly to File and must Invalidate.
///
/// Thread-safe: any number of callers may ReadPage concurrently. A hit
/// copies the cached frame into the caller's page under the pool mutex,
/// so no caller ever holds a pointer into a frame another caller's miss
/// can evict. A miss reads the file outside the mutex (concurrent misses
/// proceed in parallel, each charged to its own caller's I/O scope) and
/// then caches the page, unless an Invalidate ran in between.
class BufferPool {
 public:
  /// `capacity_bytes` is rounded down to whole pages (at least one page).
  explicit BufferPool(size_t capacity_bytes);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Copies page `page_no` of `file` into `*page`, from the cache or, on a
  /// miss, reading through `file`.
  Status ReadPage(File* file, uint64_t page_no, Page* page);

  /// Drops every cached page belonging to `file_id` (after writes).
  void Invalidate(uint32_t file_id);

  /// Drops everything.
  void Clear();

  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  size_t capacity_pages() const { return capacity_pages_; }
  size_t cached_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  struct Frame {
    uint64_t key;
    Page page;
  };
  using LruList = std::list<Frame>;

  static uint64_t MakeKey(uint32_t file_id, uint64_t page_no) {
    // 24 bits of file id, 40 bits of page number: 4 TiB per file at 4 KiB
    // pages, far beyond anything this repo creates.
    return (static_cast<uint64_t>(file_id) << 40) | (page_no & ((1ULL << 40) - 1));
  }

  size_t capacity_pages_;
  mutable std::mutex mu_;
  LruList lru_;  // Front = most recently used.
  std::unordered_map<uint64_t, LruList::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  /// Bumped by Invalidate/Clear; a miss caches its page only if no bump
  /// happened while it read the file unlocked.
  uint64_t generation_ = 0;
};

}  // namespace storage
}  // namespace coconut

#endif  // COCONUT_STORAGE_BUFFER_POOL_H_
