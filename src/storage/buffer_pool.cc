#include "storage/buffer_pool.h"

#include <algorithm>

namespace coconut {
namespace storage {

BufferPool::BufferPool(size_t capacity_bytes)
    : capacity_pages_(std::max<size_t>(1, capacity_bytes / kPageSize)) {}

Status BufferPool::ReadPage(File* file, uint64_t page_no, Page* page) {
  const uint64_t key = MakeKey(file->file_id(), page_no);
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      // Move to MRU position.
      lru_.splice(lru_.begin(), lru_, it->second);
      *page = lru_.front().page;
      return Status::OK();
    }
    ++misses_;
    generation = generation_;
  }
  COCONUT_RETURN_NOT_OK(file->ReadPage(page_no, page));
  std::lock_guard<std::mutex> lock(mu_);
  // A racing miss may have cached the page already; an Invalidate since
  // the read means the bytes may be stale, so they are not cached.
  if (generation != generation_ || map_.count(key) != 0) return Status::OK();
  while (lru_.size() >= capacity_pages_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Frame{key, *page});
  map_[key] = lru_.begin();
  return Status::OK();
}

void BufferPool::Invalidate(uint32_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if ((it->key >> 40) == file_id) {
      map_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

void BufferPool::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
  lru_.clear();
  map_.clear();
}

}  // namespace storage
}  // namespace coconut
