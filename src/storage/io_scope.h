#ifndef COCONUT_STORAGE_IO_SCOPE_H_
#define COCONUT_STORAGE_IO_SCOPE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "storage/io_stats.h"

namespace coconut {
namespace storage {

/// One recorded page access. `sequence` is the access's position within
/// its scope, so the heat map can lay accesses out over time.
struct AccessEvent {
  uint32_t file_id;
  uint64_t page_no;
  bool is_write;
  uint64_t sequence;
};

/// A per-request I/O sink. While a scope is alive it is its thread's
/// current scope, and every File read or write on that thread charges it
/// — besides the storage manager's shared counters. One query therefore
/// sees exactly its own I/O, however many other queries, seals and merges
/// run at the same time. The scope keeps its own device head, so the
/// sequential/random split follows this request's accesses alone. With
/// `capture_accesses` it also records every page touched: the raw feed
/// behind the Palm GUI's heat map (Figure 2).
///
/// Scopes nest: a new scope shadows the enclosing one until it ends.
/// A scope belongs to the thread that created it; only Absorb may be
/// called from other threads. Code that fans one request out to worker
/// threads opens a scope per task on the worker (capturing like the
/// caller's) and absorbs it into the caller's scope at the end of the
/// task, while the caller waits — see ShardedIndex::ScatterSearch. Each
/// task thus classifies its reads against its own head, as one shard's
/// storage manager would.
class IoScope {
 public:
  explicit IoScope(bool capture_accesses = false);
  ~IoScope();

  IoScope(const IoScope&) = delete;
  IoScope& operator=(const IoScope&) = delete;

  /// The innermost live scope of the calling thread, or nullptr.
  static IoScope* Current();

  /// Charges one access of `len` bytes at `offset` of file `file_id`.
  void CountRead(uint32_t file_id, uint64_t offset, size_t len);
  void CountWrite(uint32_t file_id, uint64_t offset, size_t len);

  /// Adds another scope's counters (and recorded accesses, when both
  /// capture). The device head stays this scope's own. Concurrent
  /// Absorbs of fan-out tasks serialize on an internal mutex.
  void Absorb(const IoScope& other);

  const IoStats& stats() const { return stats_; }
  bool capture_accesses() const { return capture_accesses_; }
  const std::vector<AccessEvent>& accesses() const { return accesses_; }

 private:
  void Record(uint32_t file_id, uint64_t offset, bool is_write);

  IoScope* const previous_;
  const bool capture_accesses_;
  std::mutex absorb_mu_;
  IoStats stats_;
  std::vector<AccessEvent> accesses_;
};

}  // namespace storage
}  // namespace coconut

#endif  // COCONUT_STORAGE_IO_SCOPE_H_
