#include "storage/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "storage/io_scope.h"

namespace coconut {
namespace storage {

namespace {
std::string Errno(const std::string& op, const std::string& path) {
  return op + " failed for '" + path + "': " + std::strerror(errno);
}
}  // namespace

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<File>> File::Create(const std::string& path,
                                           uint32_t file_id, IoStats* stats,
                                           std::mutex* io_mutex) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError(Errno("open(create)", path));
  return std::unique_ptr<File>(
      new File(fd, path, file_id, /*size=*/0, stats, io_mutex));
}

Result<std::unique_ptr<File>> File::Open(const std::string& path,
                                         uint32_t file_id, IoStats* stats,
                                         std::mutex* io_mutex) {
  int fd = ::open(path.c_str(), O_RDWR, 0644);
  if (fd < 0) return Status::IoError(Errno("open", path));
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IoError(Errno("lseek", path));
  }
  return std::unique_ptr<File>(new File(fd, path, file_id,
                                        static_cast<uint64_t>(size), stats,
                                        io_mutex));
}

void File::CountRead(uint64_t offset, size_t len) {
  if (stats_ != nullptr) {
    std::unique_lock<std::mutex> lock;
    if (io_mutex_ != nullptr) lock = std::unique_lock<std::mutex>(*io_mutex_);
    stats_->ChargeRead(file_id_, offset, len);
  }
  if (IoScope* scope = IoScope::Current()) {
    scope->CountRead(file_id_, offset, len);
  }
}

void File::CountWrite(uint64_t offset, size_t len) {
  if (stats_ != nullptr) {
    std::unique_lock<std::mutex> lock;
    if (io_mutex_ != nullptr) lock = std::unique_lock<std::mutex>(*io_mutex_);
    stats_->ChargeWrite(file_id_, offset, len);
  }
  if (IoScope* scope = IoScope::Current()) {
    scope->CountWrite(file_id_, offset, len);
  }
}

Status File::ReadPage(uint64_t page_no, Page* page) {
  const uint64_t offset = page_no * kPageSize;
  if (offset >= size_bytes_) {
    return Status::OutOfRange("ReadPage past EOF in '" + path_ + "' (page " +
                              std::to_string(page_no) + ")");
  }
  ssize_t n = ::pread(fd_, page->data(), kPageSize, static_cast<off_t>(offset));
  if (n < 0) return Status::IoError(Errno("pread", path_));
  // The final page of a file may be short; zero-fill the tail.
  if (static_cast<size_t>(n) < kPageSize) {
    std::memset(page->data() + n, 0, kPageSize - n);
  }
  CountRead(offset, kPageSize);
  return Status::OK();
}

Status File::WritePage(uint64_t page_no, const Page& page) {
  const uint64_t offset = page_no * kPageSize;
  ssize_t n = ::pwrite(fd_, page.data(), kPageSize, static_cast<off_t>(offset));
  if (n < 0) return Status::IoError(Errno("pwrite", path_));
  if (static_cast<size_t>(n) != kPageSize) {
    return Status::IoError("short pwrite to '" + path_ + "'");
  }
  if (offset + kPageSize > size_bytes_) size_bytes_ = offset + kPageSize;
  CountWrite(offset, kPageSize);
  return Status::OK();
}

Status File::Append(const void* data, size_t len) {
  const uint64_t offset = size_bytes_;
  ssize_t n = ::pwrite(fd_, data, len, static_cast<off_t>(offset));
  if (n < 0) return Status::IoError(Errno("pwrite(append)", path_));
  if (static_cast<size_t>(n) != len) {
    return Status::IoError("short append to '" + path_ + "'");
  }
  size_bytes_ += len;
  CountWrite(offset, len);
  return Status::OK();
}

Status File::ReadAt(uint64_t offset, void* data, size_t len) {
  if (offset + len > size_bytes_) {
    return Status::OutOfRange("ReadAt past EOF in '" + path_ + "'");
  }
  ssize_t n = ::pread(fd_, data, len, static_cast<off_t>(offset));
  if (n < 0) return Status::IoError(Errno("pread", path_));
  if (static_cast<size_t>(n) != len) {
    return Status::IoError("short pread from '" + path_ + "'");
  }
  CountRead(offset, len);
  return Status::OK();
}

Status File::Sync() {
  if (::fsync(fd_) != 0) return Status::IoError(Errno("fsync", path_));
  return Status::OK();
}

Status File::DataSync() {
#if defined(__linux__)
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(Errno("fdatasync", path_));
  }
  return Status::OK();
#else
  return Sync();
#endif
}

Status File::Truncate(uint64_t new_size) {
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    return Status::IoError(Errno("ftruncate", path_));
  }
  size_bytes_ = new_size;
  return Status::OK();
}

Status FsyncDir(const std::string& dir_path) {
  int fd = ::open(dir_path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IoError(Errno("open(dir)", dir_path));
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved_errno;
    return Status::IoError(Errno("fsync(dir)", dir_path));
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace coconut
