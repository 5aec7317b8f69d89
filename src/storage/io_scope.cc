#include "storage/io_scope.h"

#include "storage/page.h"

namespace coconut {
namespace storage {

namespace {
thread_local IoScope* current_scope = nullptr;
}  // namespace

IoScope::IoScope(bool capture_accesses)
    : previous_(current_scope), capture_accesses_(capture_accesses) {
  current_scope = this;
}

IoScope::~IoScope() { current_scope = previous_; }

IoScope* IoScope::Current() { return current_scope; }

void IoScope::CountRead(uint32_t file_id, uint64_t offset, size_t len) {
  stats_.ChargeRead(file_id, offset, len);
  if (capture_accesses_) Record(file_id, offset, /*is_write=*/false);
}

void IoScope::CountWrite(uint32_t file_id, uint64_t offset, size_t len) {
  stats_.ChargeWrite(file_id, offset, len);
  if (capture_accesses_) Record(file_id, offset, /*is_write=*/true);
}

void IoScope::Absorb(const IoScope& other) {
  std::lock_guard<std::mutex> lock(absorb_mu_);
  stats_.Add(other.stats_);
  if (!capture_accesses_) return;
  for (AccessEvent event : other.accesses_) {
    event.sequence = accesses_.size();
    accesses_.push_back(event);
  }
}

void IoScope::Record(uint32_t file_id, uint64_t offset, bool is_write) {
  accesses_.push_back(AccessEvent{file_id, offset / kPageSize, is_write,
                                  accesses_.size()});
}

}  // namespace storage
}  // namespace coconut
