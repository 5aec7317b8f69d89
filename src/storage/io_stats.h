#ifndef COCONUT_STORAGE_IO_STATS_H_
#define COCONUT_STORAGE_IO_STATS_H_

#include <cstdint>
#include <string>

namespace coconut {
namespace storage {

/// Counters distinguishing sequential from random page I/O.
///
/// The Coconut papers attribute their speedups to replacing random I/O with
/// sequential I/O; every experiment in this repo therefore reports both
/// classes separately. An access is *sequential* when it starts exactly where
/// the previous access to the same file (of the same kind) ended, and
/// *random* otherwise.
struct IoStats {
  uint64_t sequential_reads = 0;
  uint64_t random_reads = 0;
  uint64_t sequential_writes = 0;
  uint64_t random_writes = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  // Device-head tracking (not counters): an access is sequential only when
  // it continues the previous access of the same kind on this device —
  // same file AND contiguous offset. Hopping between files seeks, which is
  // precisely the cost ADS+-style per-node files incur and sorted layouts
  // avoid. kNoFile means "no previous access" (the first access of a kind
  // counts as sequential).
  static constexpr uint32_t kNoFile = 0xFFFFFFFFu;
  uint32_t last_read_file = kNoFile;
  uint64_t last_read_end = 0;
  uint32_t last_write_file = kNoFile;
  uint64_t last_write_end = 0;

  uint64_t total_reads() const { return sequential_reads + random_reads; }
  uint64_t total_writes() const { return sequential_writes + random_writes; }
  uint64_t total_ios() const { return total_reads() + total_writes(); }

  void Reset() { *this = IoStats{}; }

  /// Counts one read (write) of `len` bytes at `offset` of file
  /// `file_id`, classified against — and then advancing — the head.
  void ChargeRead(uint32_t file_id, uint64_t offset, uint64_t len) {
    Charge(file_id, offset, len, &sequential_reads, &random_reads,
           &bytes_read, &last_read_file, &last_read_end);
  }
  void ChargeWrite(uint32_t file_id, uint64_t offset, uint64_t len) {
    Charge(file_id, offset, len, &sequential_writes, &random_writes,
           &bytes_written, &last_write_file, &last_write_end);
  }

  /// Accumulates another set of counters (device-head tracking fields are
  /// meaningless across devices and stay untouched). One shared helper so
  /// every aggregation site picks up future counters automatically.
  void Add(const IoStats& other) {
    sequential_reads += other.sequential_reads;
    random_reads += other.random_reads;
    sequential_writes += other.sequential_writes;
    random_writes += other.random_writes;
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
  }

  /// Difference since an earlier snapshot (counters are monotone).
  IoStats Since(const IoStats& before) const {
    IoStats d;
    d.sequential_reads = sequential_reads - before.sequential_reads;
    d.random_reads = random_reads - before.random_reads;
    d.sequential_writes = sequential_writes - before.sequential_writes;
    d.random_writes = random_writes - before.random_writes;
    d.bytes_read = bytes_read - before.bytes_read;
    d.bytes_written = bytes_written - before.bytes_written;
    return d;
  }

  std::string ToString() const {
    return "reads(seq=" + std::to_string(sequential_reads) +
           ",rand=" + std::to_string(random_reads) +
           ") writes(seq=" + std::to_string(sequential_writes) +
           ",rand=" + std::to_string(random_writes) + ")";
  }

 private:
  static void Charge(uint32_t file_id, uint64_t offset, uint64_t len,
                     uint64_t* sequential, uint64_t* random, uint64_t* bytes,
                     uint32_t* last_file, uint64_t* last_end) {
    if (*last_file == kNoFile ||
        (*last_file == file_id && offset == *last_end)) {
      ++*sequential;
    } else {
      ++*random;
    }
    *bytes += len;
    *last_file = file_id;
    *last_end = offset + len;
  }
};

}  // namespace storage
}  // namespace coconut

#endif  // COCONUT_STORAGE_IO_STATS_H_
