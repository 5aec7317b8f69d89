#ifndef COCONUT_CLSM_CLSM_H_
#define COCONUT_CLSM_CLSM_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/entry.h"
#include "core/raw_store.h"
#include "core/types.h"
#include "seqtable/seq_table.h"
#include "stream/buffer_gen.h"
#include "stream/epoch.h"
#include "stream/streaming_index.h"

namespace coconut {
namespace stream {
class Wal;
}  // namespace stream
namespace clsm {

/// CoconutLSM: the write-optimized index of the paper. Incoming series
/// accumulate in an in-memory buffer; every flush and every compaction is a
/// sort-merge producing a fresh compact SeqTable with purely sequential
/// I/O. This is only possible because the summarizations are sortable — a
/// log-structured merge over unsortable iSAX words has no merge order.
///
/// Leveling policy: disk level i (0-based) holds at most one run of at most
/// buffer_entries * growth_factor^(i+1) entries. A higher growth factor
/// means fewer levels (faster reads, each query touches every run) but
/// more rewriting per merge (slower ingestion) — the Section 2 read/write
/// knob.
///
/// Concurrency — the epoch-based read path (mirroring stream/tp.h): the
/// tree publishes an atomic pointer to an immutable QuerySnapshot (the
/// live memtable generation, in-flight flushes, and the shared run set).
/// Readers bracket the query in an epoch::EpochGuard, load the pointer,
/// and search without taking mu_ or copying the memtable; writers
/// republish at every structural edge (memtable detach, run-set publish,
/// manifest restore) and retire superseded snapshots to epoch quiescence.
/// The flush and its compaction cascade run as one deferred task on a
/// per-index strand (FIFO over the shared pool), so the run sequence is
/// identical to the synchronous build; replaced run files are unlinked
/// only after the new set is published (open fds keep in-flight scans
/// valid). Without a background pool the ingest side keeps its
/// single-caller contract, but reads go through the same snapshot path.
class Clsm {
 public:
  struct Options {
    series::SaxConfig sax;
    /// Materialized ("CLSMFull"): series travel through every merge.
    bool materialized = false;
    /// LSM growth factor T (>= 2).
    int growth_factor = 4;
    /// In-memory buffer capacity in entries (the paper's memory budget).
    size_t buffer_entries = 1024;
    /// Background pool for flushes and merge cascades (not owned; must
    /// outlive the index). nullptr = synchronous.
    ThreadPool* background = nullptr;
    /// Bounded backpressure: cap on detached-but-unflushed memtables (each
    /// holds up to buffer_entries series in memory). 0 = unbounded. Only
    /// meaningful in async mode; FlushBuffer ignores the cap (a drain
    /// must always make progress).
    size_t max_inflight_seals = 0;
    /// What Insert does at the cap: block until a flush retires, or
    /// refuse the entry with ResourceExhausted.
    stream::BackpressurePolicy backpressure =
        stream::BackpressurePolicy::kBlock;
    /// Test seam: runs at the head of every flush task (on the strand in
    /// async mode) — fault-injection tests throttle or fail it. Never set
    /// in production.
    std::function<Status()> seal_test_hook{};
    /// Write-ahead log (not owned; must outlive the index). When set,
    /// Insert records every admission into it (inside the admission
    /// critical section, so log order == admission order) and every
    /// completed flush cascade appends a checkpoint frame.
    stream::Wal* wal = nullptr;
  };

  /// Creates an empty LSM tree writing runs named `<prefix>.L<i>.<version>`.
  /// `raw` is required for non-materialized verification; `pool` optional.
  static Result<std::unique_ptr<Clsm>> Create(storage::StorageManager* storage,
                                              const std::string& prefix,
                                              const Options& options,
                                              storage::BufferPool* pool,
                                              core::RawSeriesStore* raw);

  ~Clsm();

  /// Buffers one (z-normalized) series; triggers a flush/merge cascade when
  /// the buffer fills (deferred to the background pool in async mode).
  Status Insert(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp);

  /// Forces the buffer to disk. In async mode this is the drain barrier:
  /// it blocks until every deferred flush and cascade has completed and
  /// returns the first background error, if any.
  Status FlushBuffer();

  Result<core::SearchResult> ApproxSearch(std::span<const float> query,
                                          const core::SearchOptions& options,
                                          core::QueryCounters* counters);

  Result<core::SearchResult> ExactSearch(std::span<const float> query,
                                         const core::SearchOptions& options,
                                         core::QueryCounters* counters);

  /// Exact k-nearest-neighbors across the buffer and every run; the
  /// k-th-best bound is shared, so later runs prune harder.
  Result<std::vector<core::SearchResult>> KnnSearch(
      std::span<const float> query, size_t k,
      const core::SearchOptions& options, core::QueryCounters* counters);

  uint64_t num_entries() const;
  size_t buffered_entries() const {
    stream::epoch::EpochGuard guard;
    const QuerySnapshot* snap = snapshot_.load(std::memory_order_acquire);
    return snap->memtable == nullptr
               ? 0
               : static_cast<size_t>(snap->memtable->published.load(
                     std::memory_order_acquire));
  }

  /// Flush tasks enqueued but not yet folded into a level.
  size_t pending_flushes() const {
    stream::epoch::EpochGuard guard;
    return snapshot_.load(std::memory_order_acquire)->pending.size();
  }

  /// Number of disk levels currently holding a run.
  size_t num_active_levels() const;

  /// Entries in level i's run (0 when empty).
  uint64_t level_entries(size_t level) const;

  /// Total bytes across all run files.
  uint64_t total_file_bytes() const;

  /// Cumulative entries rewritten by flushes and compactions — the write
  /// amplification the growth factor trades against read cost.
  uint64_t entries_rewritten() const {
    stream::epoch::EpochGuard guard;
    return snapshot_.load(std::memory_order_acquire)->entries_rewritten;
  }
  uint64_t merges_performed() const {
    stream::epoch::EpochGuard guard;
    return snapshot_.load(std::memory_order_acquire)->merges_performed;
  }

  /// Race-free progress snapshot for the streaming facade. Lock-free:
  /// served from the published snapshot and atomic gate counters, so it
  /// never stalls behind a backpressure-blocked insert.
  stream::StreamingStats SnapshotStats() const;

  /// Monotonic snapshot-version stamp: bumped on every Insert admission and
  /// every run-set publication (flush or merge cascade). The adapters
  /// forward this as DataSeriesIndex::snapshot_version() so the service
  /// answer cache stays exact while the cascade runs in the background.
  uint64_t snapshot_version() const {
    return snapshot_version_.load(std::memory_order_acquire);
  }

  bool async() const { return executor_ != nullptr; }

  const Options& options() const { return options_; }

  /// Rebuilds the run set a WAL checkpoint manifest describes (run files
  /// on disk plus the naming/progress counters). Called once, on an empty
  /// tree, before WAL replay. The PP facade forwards
  /// StreamingIndex::RestoreFromManifest here.
  Status RestoreFromManifest(std::span<const uint8_t> manifest);

  /// Group-commits the attached WAL (OK without one) — the ack gate.
  Status CommitDurable();

 private:
  /// Levels as an immutable snapshot; index = level, nullptr = empty.
  using RunSet = std::vector<std::shared_ptr<seqtable::SeqTable>>;

  /// A memtable generation moved out of the insert path, waiting for (or
  /// undergoing) its background flush. The generation is immutable from
  /// detach (count frozen), so queries evaluate it without copying.
  struct PendingFlush {
    std::shared_ptr<const stream::BufferGen> gen;
    size_t count = 0;

    std::span<const core::IndexEntry> entries() const {
      return gen->EntrySpan(count);
    }
    std::span<const float> payloads() const { return gen->PayloadSpan(count); }
  };

  /// The immutable unit the tree publishes through an atomic pointer and
  /// retires through the epoch manager; see stream/tp.h's QuerySnapshot.
  struct QuerySnapshot {
    std::shared_ptr<const stream::BufferGen> memtable;
    std::vector<std::shared_ptr<const PendingFlush>> pending;
    std::shared_ptr<const RunSet> runs;

    // Stats mirrors, exact as of publication.
    uint64_t entries_pending = 0;  // Sum of pending-flush counts.
    uint64_t entries_in_runs = 0;
    uint64_t entries_rewritten = 0;
    uint64_t merges_performed = 0;
    uint64_t flushes_completed = 0;
  };

  /// One query's frozen view: the published snapshot plus the memtable
  /// prefix captured once (seed and exact pass must agree). Valid only
  /// under the caller's EpochGuard.
  struct QueryView {
    const QuerySnapshot* snap = nullptr;
    std::span<const core::IndexEntry> memtable;
    std::span<const float> memtable_payloads;
  };
  QueryView CaptureView() const;

  Clsm(storage::StorageManager* storage, std::string prefix, Options options,
       storage::BufferPool* pool, core::RawSeriesStore* raw);

  uint64_t LevelCapacity(size_t level) const;
  std::string RunName(size_t level);

  /// See TemporalPartitioningIndex::ReadPool: async runs are read with
  /// direct preads, sparing concurrent readers the pool's one mutex.
  storage::BufferPool* ReadPool() const { return async() ? nullptr : pool_; }

  /// Builds an immutable snapshot of the current state, swaps it into
  /// snapshot_, and returns the superseded one. Caller holds mu_ and MUST
  /// pass the returned pointer to the epoch manager's Retire after
  /// releasing the lock (never delete it — readers may hold it).
  const QuerySnapshot* RepublishSnapshotLocked();

  /// Detaches the full memtable generation into the pending list; caller
  /// holds mu_ and republishes afterwards.
  std::shared_ptr<PendingFlush> DetachMemtableLocked();

  size_t MemtableCountLocked() const {
    return gen_ == nullptr
               ? 0
               : static_cast<size_t>(
                     gen_->published.load(std::memory_order_relaxed));
  }

  /// Blocks (kBlock) or refuses (kReject) when admitting one more entry
  /// would detach a memtable past the flush cap. Caller holds `lock` on
  /// mu_; kBlock waits on it until a flush retires or a background error
  /// lands.
  Status ApplyBackpressureLocked(std::unique_lock<std::mutex>* lock);

  /// Enqueues the flush on the strand. Caller holds mu_, which guarantees
  /// strand order equals detach order even when Insert and FlushBuffer
  /// race.
  void EnqueueFlushLocked(std::shared_ptr<const PendingFlush> pending);

  /// Flush + cascade for one detached memtable; runs on the strand in
  /// async mode, inline otherwise. The only run-set mutator.
  Status FlushTask(std::shared_ptr<const PendingFlush> pending);

  /// Merges `work[level-1]` (or the memtable batch, sorted here) into
  /// `work[level]`, updating the working copy and returning the names of
  /// replaced runs.
  Status MergeIntoLevel(RunSet* work, size_t level,
                        std::span<const core::IndexEntry> mem_entries,
                        std::span<const float> mem_payloads,
                        bool from_memtable,
                        std::vector<std::string>* retired,
                        uint64_t* rewritten);

  /// Publishes `work` as the new run set; optionally retires the pending
  /// flush whose data is now on disk, in the same critical section.
  void PublishRuns(std::shared_ptr<const RunSet> runs,
                   const PendingFlush* retired_pending, uint64_t rewritten,
                   uint64_t merges);

  /// Serializes the run set (names, entries, naming/progress counters)
  /// and the admit count it covers. Takes mu_ briefly.
  void EncodeManifest(std::vector<uint8_t>* manifest,
                      uint64_t* durable_entries) const;

  /// WAL checkpoint after a completed flush cascade, then the deferred
  /// unlinks that had to wait for it. Runs on the strand; no-op without
  /// a WAL.
  Status CheckpointDurable();

  /// Removes a replaced run file — immediately without a WAL; deferred to
  /// the next durable checkpoint with one (the last checkpoint on disk
  /// may still reference it). Strand-serialized.
  Status RetireFile(const std::string& name);

  void RecordBackgroundError(const Status& status);

  /// The approximate pass (memtable, in-flight flushes, every run) over
  /// one query view — ApproxSearch's whole body and ExactSearch's
  /// bound-tightening seed, so the two cannot drift.
  Status ApproxPassOverSnapshot(const QueryView& view,
                                std::span<const float> query,
                                const core::SearchOptions& options,
                                core::QueryCounters* counters,
                                core::SearchResult* best);

  /// Evaluates a batch of in-memory entries against a query.
  Status SearchMemtableEntries(std::span<const core::IndexEntry> entries,
                               std::span<const float> payloads,
                               const std::span<const float>& query,
                               const core::SearchOptions& options,
                               core::QueryCounters* counters,
                               int max_verifications,
                               core::SearchResult* best);

  storage::StorageManager* storage_;
  std::string prefix_;
  Options options_;
  storage::BufferPool* pool_;
  core::RawSeriesStore* raw_;

  /// The light insert/state lock: guards the writer-side authoritative
  /// state and serializes snapshot republication. Queries never take it.
  /// Never held across flush/merge I/O.
  mutable std::mutex mu_;

  /// The published read snapshot; see stream/tp.h.
  std::atomic<const QuerySnapshot*> snapshot_{nullptr};

  /// The live memtable generation. Writer-owned; readers reach it via the
  /// snapshot.
  std::shared_ptr<stream::BufferGen> gen_;

  std::vector<std::shared_ptr<const PendingFlush>> pending_;
  std::shared_ptr<const RunSet> runs_;
  uint64_t entries_rewritten_ = 0;
  uint64_t merges_performed_ = 0;
  uint64_t flushes_completed_ = 0;
  Status background_status_;

  /// Backpressure state (writers guarded by mu_; counters and the stall
  /// window readable lock-free): notified when a pending flush retires or
  /// a background error lands, so blocked inserts always wake.
  stream::BackpressureGate backpressure_;

  /// Only touched by the (serialized) flush/cascade path.
  uint64_t version_ = 0;

  /// Replaced run files awaiting the next durable checkpoint (see
  /// RetireFile). Only touched on the strand (or the single caller, in
  /// sync mode), so it needs no lock.
  std::vector<std::string> pending_unlinks_;

  /// See snapshot_version(); distinct from version_ (run-file naming).
  std::atomic<uint64_t> snapshot_version_{0};

  std::unique_ptr<SerialExecutor> executor_;
};

}  // namespace clsm
}  // namespace coconut

#endif  // COCONUT_CLSM_CLSM_H_
