#include "storage/storage_manager.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace coconut {
namespace storage {

namespace fs = std::filesystem;

Result<std::unique_ptr<StorageManager>> StorageManager::Create(
    const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("create_directories('" + directory +
                           "'): " + ec.message());
  }
  return std::unique_ptr<StorageManager>(new StorageManager(directory));
}

StorageManager::~StorageManager() = default;

std::string StorageManager::PathFor(const std::string& name) const {
  return directory_ + "/" + name;
}

Result<std::unique_ptr<File>> StorageManager::CreateFile(
    const std::string& name) {
  auto file = File::Create(PathFor(name), next_file_id_.fetch_add(1), &stats_,
                           &io_mutex_);
  if (!file.ok()) return file;
  // The new *name* lives in the directory inode; without this a
  // created-then-crashed file (e.g. a fresh write-ahead log) can vanish
  // even though its own fsync succeeded.
  COCONUT_RETURN_NOT_OK(FsyncDir(directory_));
  return file;
}

Result<std::unique_ptr<File>> StorageManager::OpenFile(
    const std::string& name) {
  return File::Open(PathFor(name), next_file_id_.fetch_add(1), &stats_,
                    &io_mutex_);
}

Status StorageManager::LinkFile(const std::string& source_path,
                                const std::string& name) {
  if (::link(source_path.c_str(), PathFor(name).c_str()) != 0) {
    return Status::IoError("link('" + source_path + "' -> '" +
                           PathFor(name) + "'): " + std::strerror(errno));
  }
  return Status::OK();
}

Status StorageManager::RemoveFile(const std::string& name) {
  if (::unlink(PathFor(name).c_str()) != 0) {
    return Status::IoError("unlink('" + PathFor(name) +
                           "'): " + std::strerror(errno));
  }
  return Status::OK();
}

Status StorageManager::RenameFile(const std::string& from,
                                  const std::string& to) {
  if (::rename(PathFor(from).c_str(), PathFor(to).c_str()) != 0) {
    return Status::IoError("rename('" + PathFor(from) + "' -> '" +
                           PathFor(to) + "'): " + std::strerror(errno));
  }
  return FsyncDir(directory_);
}

bool StorageManager::Exists(const std::string& name) const {
  struct stat st;
  return ::stat(PathFor(name).c_str(), &st) == 0;
}

uint64_t StorageManager::TotalBytesOnDisk() const {
  // Recursive: a sharded index keeps each shard's stack in a subdirectory
  // of its parent manager, and those bytes are part of its footprint.
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       fs::recursive_directory_iterator(directory_, ec)) {
    if (entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

Status StorageManager::Clear() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    fs::remove_all(entry.path(), ec);
    if (ec) {
      return Status::IoError("remove_all('" + entry.path().string() +
                             "'): " + ec.message());
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<StorageManager>> MakeTempStorage(
    const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = counter.fetch_add(1);
  std::string dir = fs::temp_directory_path().string() + "/coconut_" + prefix +
                    "_" + std::to_string(::getpid()) + "_" +
                    std::to_string(id);
  return StorageManager::Create(dir);
}

}  // namespace storage
}  // namespace coconut
