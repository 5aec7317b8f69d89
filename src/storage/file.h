#ifndef COCONUT_STORAGE_FILE_H_
#define COCONUT_STORAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace coconut {
namespace storage {

/// Instrumented POSIX file. Every read/write updates the shared IoStats
/// (classifying sequential vs random by comparing against the end of the
/// previous access of the same kind) and charges the calling thread's
/// current IoScope, if any — the per-request view behind query reports
/// and heat maps.
///
/// Files are obtained through StorageManager, which assigns the file_id used
/// by access events.
class File {
 public:
  ~File();

  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Creates (truncates) a file at `path`. `io_mutex` (optional, not owned)
  /// serializes stats updates when files of one manager are used from
  /// several threads (parallel run generation, concurrent queries).
  static Result<std::unique_ptr<File>> Create(const std::string& path,
                                              uint32_t file_id,
                                              IoStats* stats,
                                              std::mutex* io_mutex = nullptr);

  /// Opens an existing file for read/write.
  static Result<std::unique_ptr<File>> Open(const std::string& path,
                                            uint32_t file_id, IoStats* stats,
                                            std::mutex* io_mutex = nullptr);

  /// Reads the `page_no`-th kPageSize page into `page`.
  Status ReadPage(uint64_t page_no, Page* page);

  /// Writes `page` at page index `page_no`, extending the file if needed.
  Status WritePage(uint64_t page_no, const Page& page);

  /// Appends `len` raw bytes at the end of the file (sequential write).
  Status Append(const void* data, size_t len);

  /// Reads `len` raw bytes starting at byte `offset`.
  Status ReadAt(uint64_t offset, void* data, size_t len);

  /// Flushes file contents to stable storage.
  Status Sync();

  /// Like Sync but skips flushing metadata (mtime) when the platform
  /// offers fdatasync; the write-ahead log's commit path calls this once
  /// per acknowledged batch, so the cheaper barrier matters.
  Status DataSync();

  /// Truncates (or extends with zeros) the file to exactly `new_size`
  /// bytes. Recovery uses this to drop a torn frame tail from a log.
  Status Truncate(uint64_t new_size);

  /// Current file length in bytes.
  uint64_t size_bytes() const { return size_bytes_; }

  /// Number of whole pages in the file.
  uint64_t num_pages() const { return (size_bytes_ + kPageSize - 1) / kPageSize; }

  uint32_t file_id() const { return file_id_; }
  const std::string& path() const { return path_; }

 private:
  File(int fd, std::string path, uint32_t file_id, uint64_t size,
       IoStats* stats, std::mutex* io_mutex)
      : fd_(fd),
        path_(std::move(path)),
        file_id_(file_id),
        size_bytes_(size),
        stats_(stats),
        io_mutex_(io_mutex) {}

  void CountRead(uint64_t offset, size_t len);
  void CountWrite(uint64_t offset, size_t len);

  int fd_;
  std::string path_;
  uint32_t file_id_;
  uint64_t size_bytes_;
  IoStats* stats_;       // Not owned; shared across files of one manager.
  std::mutex* io_mutex_;    // Not owned; may be nullptr (single-threaded).
};

/// Fsyncs the directory at `dir_path` so entries created (or renamed)
/// inside it survive a crash. POSIX only promises a created file's *data*
/// is durable after fsync(fd); the *name* lives in the parent directory
/// and needs its own fsync — without it a created-then-crashed log file
/// can vanish on real filesystems.
Status FsyncDir(const std::string& dir_path);

}  // namespace storage
}  // namespace coconut

#endif  // COCONUT_STORAGE_FILE_H_
