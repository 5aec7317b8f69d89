#include "core/raw_store.h"

#include <algorithm>
#include <cstring>

#include "storage/page.h"

namespace coconut {
namespace core {

namespace {

using storage::kPageSize;
using storage::Page;

constexpr uint64_t kMagic = 0xC0C04A17DA7A0001ULL;
// Buffer up to 64 series (or ~1 MiB) before appending.
constexpr uint64_t kFlushSeries = 64;

}  // namespace

Result<std::unique_ptr<RawSeriesStore>> RawSeriesStore::Create(
    storage::StorageManager* storage, const std::string& name,
    int series_length) {
  if (series_length <= 0) {
    return Status::InvalidArgument("series_length must be positive");
  }
  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                           storage->CreateFile(name));
  // Reserve the header page.
  Page header;
  COCONUT_RETURN_NOT_OK(file->Append(header.data(), kPageSize));
  auto store = std::unique_ptr<RawSeriesStore>(
      new RawSeriesStore(std::move(file), series_length, 0));
  COCONUT_RETURN_NOT_OK(store->WriteHeader());
  return store;
}

Result<std::unique_ptr<RawSeriesStore>> RawSeriesStore::Open(
    storage::StorageManager* storage, const std::string& name) {
  COCONUT_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                           storage->OpenFile(name));
  Page header;
  COCONUT_RETURN_NOT_OK(file->ReadPage(0, &header));
  if (header.Read<uint64_t>(0) != kMagic) {
    return Status::InvalidArgument("'" + name + "' is not a RawSeriesStore");
  }
  const int length = static_cast<int>(header.Read<uint32_t>(8));
  const uint64_t count = header.Read<uint64_t>(16);
  return std::unique_ptr<RawSeriesStore>(
      new RawSeriesStore(std::move(file), length, count));
}

Result<std::unique_ptr<RawSeriesStore>> RawSeriesStore::OpenTruncated(
    storage::StorageManager* storage, const std::string& name,
    int series_length, uint64_t count) {
  if (series_length <= 0) {
    return Status::InvalidArgument("series_length must be positive");
  }
  std::unique_ptr<storage::File> file;
  if (storage->Exists(name)) {
    COCONUT_ASSIGN_OR_RETURN(file, storage->OpenFile(name));
  } else {
    COCONUT_ASSIGN_OR_RETURN(file, storage->CreateFile(name));
  }
  // Cut the data region to exactly `count` series: a longer file holds
  // unacknowledged appends that must not resurrect; a shorter one (lost
  // buffered tail, or a file that vanished entirely) is extended with
  // zeros and overwritten by replay.
  const uint64_t data_bytes =
      count * static_cast<uint64_t>(series_length) * sizeof(float);
  COCONUT_RETURN_NOT_OK(file->Truncate(kPageSize + data_bytes));
  auto store = std::unique_ptr<RawSeriesStore>(
      new RawSeriesStore(std::move(file), series_length, count));
  COCONUT_RETURN_NOT_OK(store->WriteHeader());
  return store;
}

Status RawSeriesStore::WriteHeader() {
  Page header;
  header.Write<uint64_t>(0, kMagic);
  header.Write<uint32_t>(8, static_cast<uint32_t>(series_length_));
  header.Write<uint64_t>(16, count_);
  return file_->WritePage(0, header);
}

Result<uint64_t> RawSeriesStore::Append(std::span<const float> values) {
  if (values.size() != static_cast<size_t>(series_length_)) {
    return Status::InvalidArgument("series length mismatch on Append");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  append_buffer_.insert(append_buffer_.end(), values.begin(), values.end());
  ++buffered_series_;
  const uint64_t id = count_++;
  if (buffered_series_ >= kFlushSeries) {
    // Drain data only; the header (a random write) is deferred to Flush()
    // so steady-state ingestion stays purely sequential.
    COCONUT_RETURN_NOT_OK(file_->Append(
        append_buffer_.data(), append_buffer_.size() * sizeof(float)));
    append_buffer_.clear();
    buffered_series_ = 0;
  }
  return id;
}

Status RawSeriesStore::Flush() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (buffered_series_ > 0) {
    COCONUT_RETURN_NOT_OK(file_->Append(
        append_buffer_.data(), append_buffer_.size() * sizeof(float)));
    append_buffer_.clear();
    buffered_series_ = 0;
  }
  return WriteHeader();
}

Status RawSeriesStore::Sync() {
  COCONUT_RETURN_NOT_OK(Flush());
  std::unique_lock<std::shared_mutex> lock(mu_);
  return file_->Sync();
}

Status RawSeriesStore::Get(uint64_t id, std::span<float> out) const {
  if (out.size() != static_cast<size_t>(series_length_)) {
    return Status::InvalidArgument("output span length mismatch");
  }
  return GetRange(id, out);
}

Status RawSeriesStore::GetRange(uint64_t first, std::span<float> out) const {
  const size_t len = static_cast<size_t>(series_length_);
  if (out.size() % len != 0) {
    return Status::InvalidArgument("output span is not whole series");
  }
  const uint64_t n = out.size() / len;
  // Shared: concurrent readers proceed together (preads are independent),
  // while Append/Flush take the lock exclusively to move the buffer.
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (first + n > count_) {
    return Status::NotFound("series id " + std::to_string(first + n - 1) +
                            " out of range");
  }
  const uint64_t persisted = count_ - buffered_series_;
  const uint64_t from_file =
      first < persisted ? std::min(n, persisted - first) : 0;
  if (from_file > 0) {
    COCONUT_RETURN_NOT_OK(
        file_->ReadAt(kPageSize + first * len * sizeof(float), out.data(),
                      from_file * len * sizeof(float)));
  }
  if (from_file < n) {
    // The tail is still in the append buffer.
    const uint64_t pos = first + from_file - persisted;
    std::memcpy(out.data() + from_file * len,
                append_buffer_.data() + pos * len,
                (n - from_file) * len * sizeof(float));
  }
  return Status::OK();
}

}  // namespace core
}  // namespace coconut
