#ifndef COCONUT_STORAGE_STORAGE_MANAGER_H_
#define COCONUT_STORAGE_STORAGE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/file.h"
#include "storage/io_stats.h"

namespace coconut {
namespace storage {

/// Owns a working directory and hands out instrumented File handles whose
/// I/O all flows into one IoStats (per-request views come from
/// storage::IoScope). Each index variant
/// gets its own StorageManager so its footprint and I/O behaviour can be
/// measured in isolation — this is the "Storage Layer" box of Figure 1.
class StorageManager {
 public:
  /// Creates (mkdir -p) the working directory. Files created through the
  /// manager live inside it.
  static Result<std::unique_ptr<StorageManager>> Create(
      const std::string& directory);

  ~StorageManager();

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  /// Creates (truncates) a file named `name` inside the directory.
  Result<std::unique_ptr<File>> CreateFile(const std::string& name);

  /// Opens an existing file named `name`.
  Result<std::unique_ptr<File>> OpenFile(const std::string& name);

  /// Makes `name` inside the directory a hard link of the file at
  /// `source_path` (same filesystem). The new name keeps the data alive
  /// after the source is deleted.
  Status LinkFile(const std::string& source_path, const std::string& name);

  /// Deletes the named file from disk.
  Status RemoveFile(const std::string& name);

  /// Atomically renames `from` to `to` inside the directory (replacing
  /// `to` if present), then fsyncs the directory so the swap is durable.
  /// The write-ahead log's truncation rests on this being all-or-nothing.
  Status RenameFile(const std::string& from, const std::string& to);

  /// Fsyncs the working directory itself — makes recently created or
  /// renamed *names* durable (see storage::FsyncDir).
  Status SyncDir() const { return FsyncDir(directory_); }

  /// Whether `name` exists inside the directory.
  bool Exists(const std::string& name) const;

  /// Sum of the sizes of every file under the directory, recursively
  /// (shard stacks live in subdirectories); the storage-consumption
  /// metric shown by the GUI.
  uint64_t TotalBytesOnDisk() const;

  /// Removes every file in the directory (used between experiments).
  Status Clear();

  /// Shared counters. Concurrent File I/O updates them under an internal
  /// mutex; read them from quiescent sections — before/after a parallel
  /// phase — for consistent values.
  IoStats* io_stats() { return &stats_; }

  /// Consistent copy of the I/O counters taken under the same mutex the
  /// files update them with — safe to call while other threads do I/O
  /// (the concurrency stress tests read accounting mid-flight this way).
  IoStats SnapshotIoStats() const {
    std::lock_guard<std::mutex> lock(io_mutex_);
    return stats_;
  }

  const std::string& directory() const { return directory_; }

 private:
  explicit StorageManager(std::string directory)
      : directory_(std::move(directory)) {}

  std::string PathFor(const std::string& name) const;

  std::string directory_;
  IoStats stats_;
  mutable std::mutex io_mutex_;
  std::atomic<uint32_t> next_file_id_{0};
};

/// Creates a unique fresh directory under the system temp root, for tests
/// and benches. The returned manager owns it.
Result<std::unique_ptr<StorageManager>> MakeTempStorage(
    const std::string& prefix);

}  // namespace storage
}  // namespace coconut

#endif  // COCONUT_STORAGE_STORAGE_MANAGER_H_
