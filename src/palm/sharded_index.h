#ifndef COCONUT_PALM_SHARDED_INDEX_H_
#define COCONUT_PALM_SHARDED_INDEX_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/index.h"
#include "core/raw_store.h"
#include "palm/factory.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"

namespace coconut {
namespace palm {

/// One logical index split by invSAX key range across K shards, each a
/// full, independent index stack: its own StorageManager (a subdirectory
/// of the parent's working directory), BufferPool, RawSeriesStore and
/// inner DataSeriesIndex of the wrapped variant.
///
/// Routing: a series' interleaved sortable key is computed once at insert
/// and mapped to a shard by a contiguous, monotone split of the key space —
/// shard boundaries are key-range boundaries, exactly the "split the
/// sorted order at arbitrary keys" property Coconut's sortable
/// summarizations buy. Every series lands in exactly one shard, so the
/// shards partition the dataset.
///
/// Queries scatter-gather: each shard answers over its partition (shards
/// prune with their own summarizations as usual) and the gather keeps the
/// closest candidate, tie-broken by global series id. Because the shards
/// cover the dataset disjointly and each per-shard search is exact over
/// its shard, the gathered minimum distance equals the unsharded exact
/// answer — the equivalence sharded_oracle_test pins against brute force.
/// The one permitted divergence: when two series sit at *exactly* equal
/// distance, the gather deterministically returns the smaller global id,
/// while an unsharded traversal keeps whichever it encountered first.
///
/// Threading: Insert/Finalize are single-caller (the build path). After
/// Finalize the shards are immutable, so ExactSearch/ApproxSearch/
/// ExactSearchBatch are safe for any number of concurrent callers, with
/// no lock: shard fan-out runs on an internal pool, every shard's buffer
/// pool copies pages out, and each fan-out task charges its own
/// storage::IoScope, folded into the caller's, so a query's reported I/O
/// is its own.
class ShardedIndex : public core::DataSeriesIndex {
 public:
  struct Options {
    /// The per-shard variant. num_shards inside this spec is ignored (the
    /// wrapper owns sharding); the sort memory budget is divided across
    /// shards so concurrent shard builds respect the configured total.
    VariantSpec spec;
    size_t num_shards = 2;
    /// Threads finalizing shards concurrently (0 = one per shard).
    size_t build_threads = 0;
    /// Threads fanning queries across shards (0 = one per shard, cap 8).
    size_t query_threads = 0;
    /// Per-shard buffer pool budget.
    size_t pool_bytes_per_shard = 4ull << 20;
  };

  /// Creates K empty shards under `root->directory()/name_shardN`.
  static Result<std::unique_ptr<ShardedIndex>> Create(
      storage::StorageManager* root, const std::string& name,
      const Options& options);

  // --- core::DataSeriesIndex ---
  Status Insert(uint64_t series_id, std::span<const float> znorm_values,
                int64_t timestamp) override;
  Status Finalize() override;
  Result<core::SearchResult> ApproxSearch(std::span<const float> query,
                                          const core::SearchOptions& options,
                                          core::QueryCounters* counters)
      override;
  Result<core::SearchResult> ExactSearch(std::span<const float> query,
                                         const core::SearchOptions& options,
                                         core::QueryCounters* counters)
      override;
  /// Batched scatter-gather: each shard answers the whole batch in one
  /// pass (its inner index's ExactSearchBatch — a shared leaf-level scan
  /// through the batched distance kernels for CTree shards), then the
  /// per-query gather keeps the closest candidate with the usual
  /// smaller-global-id tie-break. Exactness argument is per query, as for
  /// ExactSearch.
  Status ExactSearchBatch(std::span<const std::span<const float>> queries,
                          const core::SearchOptions& options,
                          std::span<core::SearchResult> results,
                          std::span<core::QueryCounters> counters) override;
  uint64_t num_entries() const override;
  uint64_t index_bytes() const override;
  std::string describe() const override;

  /// Wrapper-level mutations plus the sum of per-shard inner stamps — a
  /// monotone sum (every term only grows), so equal reads bracketing a
  /// query still prove no shard changed in between.
  uint64_t snapshot_version() const override;

  size_t num_shards() const { return shards_.size(); }

  /// The shard a series with these (z-normalized) values routes to —
  /// exposed so tests can construct queries that straddle boundaries.
  size_t ShardOf(std::span<const float> znorm_values) const;

  /// Entries resident in one shard (balance inspection).
  uint64_t shard_entries(size_t shard) const;

  /// Sum of every shard's I/O counters. Read from quiescent sections; the
  /// per-shard counters themselves are internally thread-safe.
  storage::IoStats AggregateIoStats() const;

  /// Aggregate buffer-pool hit/miss counters across shards.
  void PoolCounters(uint64_t* hits, uint64_t* misses) const;

 private:
  struct Shard {
    std::unique_ptr<storage::StorageManager> storage;
    std::unique_ptr<storage::BufferPool> pool;
    std::unique_ptr<core::RawSeriesStore> raw;
    std::unique_ptr<core::DataSeriesIndex> index;
    /// Shard-local raw-store ordinal -> global series id.
    std::vector<uint64_t> local_to_global;
  };

  explicit ShardedIndex(Options options) : options_(std::move(options)) {}

  Result<core::SearchResult> ScatterSearch(std::span<const float> query,
                                           const core::SearchOptions& options,
                                           core::QueryCounters* counters,
                                           bool exact);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> query_pool_;  // Null when fan-out is serial.
  bool finalized_ = false;
};

}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_SHARDED_INDEX_H_
