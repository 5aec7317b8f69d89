#ifndef COCONUT_CORE_RAW_STORE_H_
#define COCONUT_CORE_RAW_STORE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>

#include "common/status.h"
#include "storage/storage_manager.h"

namespace coconut {
namespace core {

/// The raw data series file. Series are appended once (sequential writes,
/// buffered) and fetched by ordinal id (one random read each) — the
/// "access the raw data file to fetch the original data series" cost that
/// non-materialized indexes pay at query time (Section 2 of the paper).
///
/// Thread-safe: one writer may Append/Flush while any number of readers
/// Get concurrently (readers share the lock; fetches of persisted series
/// are plain preads). Concurrent streaming ingest+query needs exactly
/// this — the ingester appends the series before handing it to the index,
/// so any id a query discovers is already fetchable.
class RawSeriesStore {
 public:
  /// Creates an empty store for series of `series_length` points.
  static Result<std::unique_ptr<RawSeriesStore>> Create(
      storage::StorageManager* storage, const std::string& name,
      int series_length);

  /// Opens an existing store.
  static Result<std::unique_ptr<RawSeriesStore>> Open(
      storage::StorageManager* storage, const std::string& name);

  /// Crash-recovery open: opens `name` if it exists (creating it fresh
  /// otherwise) and truncates it to exactly `count` series — the count the
  /// write-ahead log proved durable. A crashed process may have left fewer
  /// series (buffered tail lost) or more (appended but never acknowledged);
  /// replay re-appends from the log either way, so the file is cut back to
  /// the durable prefix and the header rewritten.
  static Result<std::unique_ptr<RawSeriesStore>> OpenTruncated(
      storage::StorageManager* storage, const std::string& name,
      int series_length, uint64_t count);

  /// Appends one series (values.size() must equal series_length); returns
  /// its id. Writes are buffered; call Flush() before reading new ids.
  Result<uint64_t> Append(std::span<const float> values);

  /// Reads series `id` into `out` (size series_length).
  Status Get(uint64_t id, std::span<float> out) const;

  /// Reads the out.size() / series_length consecutive series starting at
  /// `first` into `out` — one sequential read for the persisted part.
  Status GetRange(uint64_t first, std::span<float> out) const;

  /// Drains the append buffer and persists the header.
  Status Flush();

  /// Flush + fsync: after this returns, every appended series survives a
  /// crash. The write-ahead log syncs the raw file before truncating its
  /// own tail (the log is the only other copy of those payloads).
  Status Sync();

  uint64_t count() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return count_;
  }
  int series_length() const { return series_length_; }
  /// Path of the backing file.
  const std::string& path() const { return file_->path(); }
  uint64_t file_bytes() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return file_->size_bytes();
  }

 private:
  RawSeriesStore(std::unique_ptr<storage::File> file, int series_length,
                 uint64_t count)
      : file_(std::move(file)), series_length_(series_length), count_(count) {}

  Status WriteHeader();

  mutable std::shared_mutex mu_;
  std::unique_ptr<storage::File> file_;
  const int series_length_;
  uint64_t count_;
  std::vector<float> append_buffer_;
  uint64_t buffered_series_ = 0;
};

}  // namespace core
}  // namespace coconut

#endif  // COCONUT_CORE_RAW_STORE_H_
