#ifndef COCONUT_STREAM_TP_H_
#define COCONUT_STREAM_TP_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ads/ads_index.h"
#include "common/thread_pool.h"
#include "core/entry.h"
#include "core/raw_store.h"
#include "seqtable/seq_table.h"
#include "stream/buffer_gen.h"
#include "stream/epoch.h"
#include "stream/streaming_index.h"

namespace coconut {
namespace stream {

class Wal;

/// Which structure backs each sealed temporal partition.
enum class PartitionBackend {
  kSeqTable,  ///< Sorted compact partitions ("CTreeTP").
  kAds,       ///< One ADS+ tree per partition ("ADS+TP").
};

/// Temporal Partitioning (TP, Section 3): every time the in-memory buffer
/// fills, its contents are sealed into a new immutable partition tagged
/// with its [min, max] arrival-time range. Window queries touch only
/// partitions whose range intersects the window — small windows skip
/// nearly everything — but partitions accumulate without bound, so large
/// windows pay one probe per partition.
///
/// Concurrency — the epoch-based read path: the index publishes an atomic
/// pointer to an immutable QuerySnapshot (the current buffer generation,
/// the in-flight seals, and the shared partition set, with stats mirrors
/// precomputed). Readers bracket the whole query in an epoch::EpochGuard,
/// load the pointer, and search — they never take mu_, never copy the
/// ingest buffer (admissions publish into a fixed buffer generation via
/// an atomic count), and never block behind a backpressure-stalled
/// producer. Writers replace the snapshot at every structural edge
/// (buffer detach, seal retire, merge install, manifest restore) and hand
/// the superseded one to the epoch manager, which frees it once every
/// reader that could hold it has exited. Every acknowledged entry is
/// visible to the very next query: admissions bump the generation's
/// published count, detaches move the generation wholesale into the
/// pending list within one republish.
///
/// Without a background pool the index keeps its single-caller contract
/// (one thread at a time), but reads go through the same snapshot path.
class TemporalPartitioningIndex : public StreamingIndex {
 public:
  struct Options {
    series::SaxConfig sax;
    bool materialized = false;
    PartitionBackend backend = PartitionBackend::kSeqTable;
    /// Entries buffered before sealing a partition.
    size_t buffer_entries = 4096;
    /// Leaf capacity for kAds partitions.
    size_t ads_leaf_capacity = 1024;
    /// What Ingest does with a timestamp below the max accepted so far.
    TimestampPolicy timestamp_policy = TimestampPolicy::kPermissive;
    /// Background pool for seals and merge cascades (not owned; must
    /// outlive the index). nullptr = synchronous, the classic behaviour.
    /// Requires the kSeqTable backend (a live ADS+ tree cannot be sealed
    /// behind ingestion's back).
    ThreadPool* background = nullptr;
    /// Bounded backpressure: cap on detached-but-unflushed buffers (each
    /// holds up to buffer_entries series in memory). 0 = unbounded, the
    /// pre-cap behaviour. Only meaningful in async mode — a synchronous
    /// index seals inline and never accumulates pending buffers. FlushAll
    /// ignores the cap (a drain must always make progress).
    size_t max_inflight_seals = 0;
    /// What Ingest does at the cap: block until a seal retires, or refuse
    /// the entry with ResourceExhausted.
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
    /// Test seam: runs at the head of every seal task (on the strand in
    /// async mode). Tests throttle it to keep seals in flight, or return
    /// a non-OK status to inject a background flush failure. Never set in
    /// production.
    std::function<Status()> seal_test_hook{};
    /// Write-ahead log (not owned; must outlive the index). When set,
    /// Ingest records every admission into it (inside the admission
    /// critical section, so log order == admission order) and every
    /// completed seal appends a checkpoint. kSeqTable backend only.
    Wal* wal = nullptr;
  };

  /// Externally visible shape of one sealed partition, for tests and the
  /// server's stats endpoints. Taken from a consistent snapshot.
  struct PartitionInfo {
    std::string name;
    uint64_t entries = 0;
    int size_class = 0;
    int64_t t_min = 0;
    int64_t t_max = 0;
  };

  struct SealedPartition {
    std::shared_ptr<seqtable::SeqTable> table;  // kSeqTable backend.
    std::shared_ptr<ads::AdsIndex> ads;         // kAds backend.
    int64_t t_min = 0;
    int64_t t_max = 0;
    uint64_t entries = 0;
    int size_class = 0;  // Used by the BTP subclass.
    std::string name;
  };
  /// Immutable once published; snapshots hold shared_ptr copies while
  /// merges swap in replacement sets.
  using PartitionSet = std::vector<std::shared_ptr<const SealedPartition>>;

  /// A buffer generation moved out of the ingest path, waiting for (or
  /// undergoing) its background seal. The generation is immutable from
  /// detach (count frozen), so queries evaluate it without copying.
  struct PendingSeal {
    std::shared_ptr<const BufferGen> gen;
    size_t count = 0;
    int64_t t_min = 0;
    int64_t t_max = 0;
    std::string name;

    std::span<const core::IndexEntry> entries() const {
      return gen->EntrySpan(count);
    }
    std::span<const float> payloads() const { return gen->PayloadSpan(count); }
  };

  /// Everything one query evaluates — the immutable unit the index
  /// publishes through an atomic pointer and retires through the epoch
  /// manager. Readers access members directly (no shared_ptr copies on
  /// the hot path) for the lifetime of their EpochGuard. The stats
  /// mirrors are precomputed at publication so stats/health reads are
  /// pure loads that can never stall behind a blocked writer.
  struct QuerySnapshot {
    /// Live buffer generation; its atomic published count is the only
    /// part of a snapshot that advances after publication (append-only).
    std::shared_ptr<const BufferGen> buffer;
    std::vector<std::shared_ptr<const PendingSeal>> pending;
    std::shared_ptr<const PartitionSet> partitions;
    std::shared_ptr<ads::AdsIndex> current_ads;

    // Stats mirrors, exact as of publication.
    uint64_t ads_buffered = 0;     // kAds: live-tree entries at publish.
    uint64_t entries_pending = 0;  // Sum of pending-seal counts.
    uint64_t entries_sealed = 0;   // Sum over *partitions.
    uint64_t seals_completed = 0;
    uint64_t merges_completed = 0;
    uint64_t index_bytes = 0;      // Partition files (+ live ADS+ tree).
  };

  static Result<std::unique_ptr<TemporalPartitioningIndex>> Create(
      storage::StorageManager* storage, const std::string& prefix,
      const Options& options, storage::BufferPool* pool,
      core::RawSeriesStore* raw);

  ~TemporalPartitioningIndex() override;

  Status Ingest(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp) override;
  Status FlushAll() override;
  Result<core::SearchResult> ApproxSearch(
      std::span<const float> query, const core::SearchOptions& options,
      core::QueryCounters* counters) override;
  Result<core::SearchResult> ExactSearch(
      std::span<const float> query, const core::SearchOptions& options,
      core::QueryCounters* counters) override;
  uint64_t num_entries() const override;
  size_t num_partitions() const override;
  uint64_t index_bytes() const override;
  std::string describe() const override;
  StreamingStats SnapshotStats() const override;
  Status RestoreFromManifest(std::span<const uint8_t> manifest) override;
  void RestoreWatermark(int64_t timestamp) override;
  Status CommitDurable() override;

  bool async() const { return executor_ != nullptr; }

  /// Readers are lock-free (epoch-guarded snapshot loads) whenever the
  /// index is async: sealed partitions are immutable, so any number of
  /// queries may run against each other and against Ingest. Sync mode
  /// keeps the single-caller contract (its ingest path mutates without
  /// publishing a snapshot first).
  bool ConcurrentReadsSafe() const override { return async(); }

  /// Metadata of every sealed partition, oldest first.
  std::vector<PartitionInfo> SnapshotPartitions() const;

  /// Entries of sealed partition `idx` in stored (key) order — the
  /// merge-determinism suite compares these across thread counts.
  /// kSeqTable partitions only.
  Result<std::vector<core::IndexEntry>> DumpPartitionEntries(size_t idx) const;

  /// Test seam for the epoch-reclamation suite: the raw published
  /// snapshot. Must only be loaded and dereferenced under an
  /// epoch::EpochGuard held for the whole use.
  const QuerySnapshot* snapshot_for_testing() const {
    return snapshot_.load(std::memory_order_acquire);
  }

 protected:
  TemporalPartitioningIndex(storage::StorageManager* storage,
                            std::string prefix, const Options& options,
                            storage::BufferPool* pool,
                            core::RawSeriesStore* raw);

  /// Pool sealed partitions read through: the caller's pool when
  /// synchronous, nullptr (direct preads) when async. Sharing the pool
  /// would be safe (it copies pages out), but concurrent readers then
  /// queue on its one mutex: on the stream-ingest benchmark (4 readers,
  /// 4 vCPUs) reads through the pool cost 13% of the peak query rate.
  storage::BufferPool* ReadPool() const { return async() ? nullptr : pool_; }

  /// Blocks until the strand is empty. Subclasses overriding AfterSeal
  /// must call this from their own destructor so no background task can
  /// make a virtual call during destruction.
  void DrainBackground() {
    if (executor_ != nullptr) executor_->Drain();
  }

  /// One query's frozen view: the published snapshot plus the buffer
  /// prefix captured once, so the approximate seed and the exact pass
  /// evaluate exactly the same entries even while admissions race the
  /// generation's count forward. Valid only under the caller's
  /// EpochGuard.
  struct QueryView {
    const QuerySnapshot* snap = nullptr;
    std::span<const core::IndexEntry> buffer;
    std::span<const float> buffer_payloads;
  };
  QueryView CaptureView() const;

  std::shared_ptr<const PartitionSet> CurrentPartitions() const;

  /// Builds the partition for one pending seal (I/O, off-lock), publishes
  /// it, then runs the subclass consolidation hook. Runs on the strand in
  /// async mode, inline otherwise.
  Status SealTask(std::shared_ptr<const PendingSeal> pending);

  /// Publishes `set` as the new sealed-partition set. `retired_pending`
  /// (may be null) is removed from the pending list in the same critical
  /// section, so entries are never invisible or double-visible.
  void PublishPartitions(std::shared_ptr<const PartitionSet> set,
                         const PendingSeal* retired_pending,
                         bool count_seal, uint64_t merges_delta);

  void RecordBackgroundError(const Status& status);
  Status BackgroundStatus() const;

  /// Hook for BTP: consolidation after a partition is appended. Runs on
  /// the strand (async) or inline (sync); it is the only partition-set
  /// mutator besides SealTask, and the two are serialized.
  virtual Status AfterSeal() { return Status::OK(); }

  /// One extra manifest counter for the subclass (BTP's merge-output name
  /// sequence); TP itself has none.
  virtual uint64_t ManifestAuxCounter() const { return 0; }
  virtual void RestoreManifestAuxCounter(uint64_t value) { (void)value; }

  /// Serializes the sealed-partition state (names, entries, time ranges,
  /// size classes, deterministic-name counters) and the admit count it
  /// covers. Takes mu_ briefly for a consistent snapshot.
  void EncodeManifest(std::vector<uint8_t>* manifest,
                      uint64_t* durable_entries) const;

  /// WAL checkpoint after a completed seal/merge, then the deferred
  /// unlinks that had to wait for it (see RetireFile). Runs on the
  /// strand; no-op without a WAL.
  Status CheckpointDurable();

  /// Removes a replaced partition file — immediately without a WAL;
  /// deferred to the next durable checkpoint with one, because the last
  /// durable checkpoint may still reference it (a crash between the
  /// unlink and the next checkpoint would otherwise be unrecoverable
  /// once the log is truncated). Strand-serialized.
  ///
  /// Unlink-while-read safety is POSIX's: an epoch-held snapshot may keep
  /// the replaced partition's SeqTable (and its fd) open past the unlink,
  /// and its preads stay valid until the last reference drops.
  Status RetireFile(const std::string& name);

  /// Builds an immutable snapshot of the current state (buffer
  /// generation, pending list, partition set, stats mirrors), swaps it
  /// into snapshot_, and returns the superseded one. Caller holds mu_
  /// and MUST pass the returned pointer to the epoch manager's Retire
  /// after releasing the lock (never delete it — readers may hold it).
  const QuerySnapshot* RepublishSnapshotLocked();

  /// Moves the full buffer generation into the pending list and hands
  /// back the seal descriptor; returns nullptr when the buffer is empty.
  /// Does NOT republish — the caller republishes once after all edges in
  /// its critical section. Caller holds mu_.
  std::shared_ptr<PendingSeal> DetachBufferLocked();

  /// Enqueues the seal on the strand. Caller holds mu_, which guarantees
  /// strand order equals detach order even when Ingest and FlushAll race.
  void EnqueueSealLocked(std::shared_ptr<const PendingSeal> pending);

  Status EnsureCurrentAdsLocked();
  size_t UnsealedCountLocked() const;

  /// Blocks (kBlock) or refuses (kReject) when admitting one more entry
  /// would detach a buffer past the seal cap. Caller holds `lock` on mu_;
  /// kBlock waits on it until a seal retires or a background error lands.
  Status ApplyBackpressureLocked(std::unique_lock<std::mutex>* lock);

  /// Evaluates in-memory entries (buffer generation or a pending seal).
  Status SearchUnsealedEntries(std::span<const core::IndexEntry> entries,
                               std::span<const float> payloads,
                               std::span<const float> query,
                               const core::SearchOptions& options,
                               core::QueryCounters* counters, bool exact,
                               core::SearchResult* best) const;

  /// The approximate pass (unsealed tail, in-flight seals, partitions
  /// newest to oldest) over one query view — ApproxSearch's whole body
  /// and ExactSearch's bound-tightening seed, so the two cannot drift.
  Status ApproxPassOverSnapshot(const QueryView& view,
                                std::span<const float> query,
                                const core::SearchOptions& options,
                                core::QueryCounters* counters,
                                core::SearchResult* best);

  storage::StorageManager* storage_;
  std::string prefix_;
  Options options_;
  storage::BufferPool* pool_;
  core::RawSeriesStore* raw_;

  /// The light ingest/state lock: guards the writer-side authoritative
  /// state below (buffer generation pointer, pending list, partition-set
  /// pointer, counters) and serializes snapshot republication. Queries
  /// never take it. Never held across seal/merge I/O.
  mutable std::mutex mu_;

  /// The published read snapshot. Readers acquire-load under an
  /// EpochGuard; writers exchange under mu_ and retire the old pointer
  /// through the epoch manager once off the lock.
  std::atomic<const QuerySnapshot*> snapshot_{nullptr};

  // kSeqTable backend: the live buffer generation (entries + payloads
  // when materialized). Writer-owned; readers reach it via the snapshot.
  std::shared_ptr<BufferGen> gen_;

  // kAds backend (synchronous only): the partition being built, live.
  std::shared_ptr<ads::AdsIndex> current_ads_;

  std::vector<std::shared_ptr<const PendingSeal>> pending_;
  std::shared_ptr<const PartitionSet> partitions_;
  uint64_t next_partition_id_ = 0;
  int64_t unsealed_t_min_ = INT64_MAX;
  int64_t unsealed_t_max_ = INT64_MIN;
  int64_t last_timestamp_ = INT64_MIN;
  uint64_t seals_completed_ = 0;
  uint64_t merges_completed_ = 0;
  Status background_status_;

  /// Backpressure state (writers guarded by mu_; counters and the stall
  /// window readable lock-free): notified whenever a pending seal retires
  /// or a background error lands, so a blocked Ingest always wakes —
  /// including into a failed index it must not keep feeding.
  BackpressureGate backpressure_;

  /// Replaced partition files awaiting the next durable checkpoint (see
  /// RetireFile). Only touched on the strand (or the single caller, in
  /// sync mode), so it needs no lock.
  std::vector<std::string> pending_unlinks_;

  /// Per-index FIFO strand over Options.background; null when synchronous.
  std::unique_ptr<SerialExecutor> executor_;
};

}  // namespace stream
}  // namespace coconut

#endif  // COCONUT_STREAM_TP_H_
