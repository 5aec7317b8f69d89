#include "palm/sharded_index.h"

#include <algorithm>
#include <condition_variable>

#include "palm/shard_route.h"
#include "storage/io_scope.h"

namespace coconut {
namespace palm {

namespace {

/// Completion latch for one scatter round on the shared query pool.
/// ThreadPool::Wait would wait for *every* outstanding task, including
/// other callers' — per-call latches keep concurrent queries independent.
struct GatherLatch {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining;

  explicit GatherLatch(size_t n) : remaining(n) {}

  void Done() {
    // Notify under the lock: the waiter destroys the latch as soon as
    // Await returns, so the count decrement, the notify and this thread's
    // last touch of the latch must all complete before the waiter can
    // observe remaining == 0.
    std::lock_guard<std::mutex> lock(mu);
    --remaining;
    cv.notify_all();
  }

  void Await() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return remaining == 0; });
  }
};

}  // namespace

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Create(
    storage::StorageManager* root, const std::string& name,
    const Options& options) {
  if (root == nullptr) {
    return Status::InvalidArgument("root storage manager is required");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.spec.mode != StreamMode::kStatic) {
    return Status::InvalidArgument("sharding supports static indexes only");
  }
  auto sharded =
      std::unique_ptr<ShardedIndex>(new ShardedIndex(options));

  // Each shard is a complete stack of the wrapped variant. The construction
  // sort budget is split so concurrent shard builds stay inside the
  // configured total.
  VariantSpec shard_spec = options.spec;
  shard_spec.num_shards = 1;
  shard_spec.memory_budget_bytes = std::max<size_t>(
      64 << 10, options.spec.memory_budget_bytes / options.num_shards);

  for (size_t i = 0; i < options.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    COCONUT_ASSIGN_OR_RETURN(
        shard->storage,
        storage::StorageManager::Create(root->directory() + "/" + name +
                                        "_shard" + std::to_string(i)));
    COCONUT_RETURN_NOT_OK(shard->storage->Clear());
    shard->pool =
        std::make_unique<storage::BufferPool>(options.pool_bytes_per_shard);
    COCONUT_ASSIGN_OR_RETURN(
        shard->raw,
        core::RawSeriesStore::Create(shard->storage.get(), "raw",
                                     options.spec.sax.series_length));
    COCONUT_ASSIGN_OR_RETURN(
        shard->index,
        CreateStaticIndex(shard_spec, shard->storage.get(), "index",
                          shard->pool.get(), shard->raw.get()));
    sharded->shards_.push_back(std::move(shard));
  }

  if (options.num_shards > 1) {
    const size_t threads =
        options.query_threads != 0
            ? options.query_threads
            : std::min<size_t>(options.num_shards, 8);
    if (threads > 1) {
      sharded->query_pool_ = std::make_unique<ThreadPool>(threads);
    }
  }
  return sharded;
}

size_t ShardedIndex::ShardOf(std::span<const float> znorm_values) const {
  // Shared with ShardedStreamingIndex (shard_route.h): a series lands in
  // the same key range whether bulk-built or streamed.
  return ShardOfSeries(znorm_values, options_.spec.sax, shards_.size());
}

Status ShardedIndex::Insert(uint64_t series_id,
                            std::span<const float> znorm_values,
                            int64_t timestamp) {
  if (static_cast<int>(znorm_values.size()) !=
      options_.spec.sax.series_length) {
    return Status::InvalidArgument("series length mismatch");
  }
  // Routing recomputes the summarization the inner Insert derives again;
  // accepted duplication — passing a precomputed key down would change
  // DataSeriesIndex::Insert for every family, and builds are dominated by
  // the construction sort, not SAX.
  Shard& shard = *shards_[ShardOf(znorm_values)];
  // The inner index speaks shard-local ids (its raw-store ordinals); the
  // mapping back to global ids is applied at gather time.
  COCONUT_ASSIGN_OR_RETURN(uint64_t local_id,
                           shard.raw->Append(znorm_values));
  COCONUT_RETURN_NOT_OK(
      shard.index->Insert(local_id, znorm_values, timestamp));
  if (shard.local_to_global.size() <= local_id) {
    shard.local_to_global.resize(local_id + 1);
  }
  shard.local_to_global[local_id] = series_id;
  BumpSnapshotVersion();
  return Status::OK();
}

Status ShardedIndex::Finalize() {
  if (finalized_) return Status::OK();

  auto finalize_shard = [](Shard* shard) -> Status {
    COCONUT_RETURN_NOT_OK(shard->raw->Flush());
    return shard->index->Finalize();
  };

  const size_t build_threads =
      options_.build_threads != 0
          ? std::min(options_.build_threads, shards_.size())
          : shards_.size();
  if (shards_.size() == 1 || build_threads == 1) {
    for (auto& shard : shards_) {
      COCONUT_RETURN_NOT_OK(finalize_shard(shard.get()));
    }
    finalized_ = true;  // Only a fully successful build seals the index.
    BumpSnapshotVersion();
    return Status::OK();
  }

  // Shards touch disjoint storage managers, pools and raw stores, so their
  // finalizes (CTree bulk sorts included) run concurrently.
  ThreadPool pool(build_threads);
  std::vector<Status> statuses(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    Status* slot = &statuses[i];
    pool.Submit([shard, slot, &finalize_shard] {
      *slot = finalize_shard(shard);
    });
  }
  pool.Wait();
  for (const Status& st : statuses) COCONUT_RETURN_NOT_OK(st);
  finalized_ = true;  // Only a fully successful build seals the index.
  BumpSnapshotVersion();
  return Status::OK();
}

Result<core::SearchResult> ShardedIndex::ScatterSearch(
    std::span<const float> query, const core::SearchOptions& options,
    core::QueryCounters* counters, bool exact) {
  const size_t k = shards_.size();
  std::vector<Result<core::SearchResult>> results(
      k, Result<core::SearchResult>(Status::Internal("not executed")));
  std::vector<core::QueryCounters> shard_counters(k);

  // Shards are immutable after Finalize and their pools copy pages out,
  // so concurrent callers share them freely. Each task charges a scope of
  // its own (one shard, one device head) folded into the caller's.
  storage::IoScope* caller = storage::IoScope::Current();
  auto search_shard = [&](size_t i) {
    Shard& shard = *shards_[i];
    storage::IoScope scope(caller != nullptr && caller->capture_accesses());
    results[i] = exact
                     ? shard.index->ExactSearch(query, options,
                                                &shard_counters[i])
                     : shard.index->ApproxSearch(query, options,
                                                 &shard_counters[i]);
    if (caller != nullptr) caller->Absorb(scope);
  };

  if (query_pool_ == nullptr || k == 1) {
    for (size_t i = 0; i < k; ++i) search_shard(i);
  } else {
    GatherLatch latch(k);
    for (size_t i = 0; i < k; ++i) {
      query_pool_->Submit([i, &latch, &search_shard] {
        search_shard(i);
        latch.Done();
      });
    }
    latch.Await();
  }

  // Gather: smallest distance wins; exact ties break toward the smaller
  // global id so the answer is deterministic whatever the shard layout.
  core::SearchResult best;
  for (size_t i = 0; i < k; ++i) {
    COCONUT_RETURN_NOT_OK(results[i].status());
    core::SearchResult r = results[i].value();
    if (r.found) {
      r.series_id = shards_[i]->local_to_global[r.series_id];
      if (!best.found || r.distance_sq < best.distance_sq ||
          (r.distance_sq == best.distance_sq &&
           r.series_id < best.series_id)) {
        best = r;
      }
    }
    if (counters != nullptr) {
      counters->Add(shard_counters[i]);
    }
  }
  return best;
}

Result<core::SearchResult> ShardedIndex::ExactSearch(
    std::span<const float> query, const core::SearchOptions& options,
    core::QueryCounters* counters) {
  return ScatterSearch(query, options, counters, /*exact=*/true);
}

Status ShardedIndex::ExactSearchBatch(
    std::span<const std::span<const float>> queries,
    const core::SearchOptions& options,
    std::span<core::SearchResult> results,
    std::span<core::QueryCounters> counters) {
  const size_t nq = queries.size();
  const size_t k = shards_.size();
  if (nq == 0) return Status::OK();
  for (size_t q = 0; q < nq; ++q) results[q] = core::SearchResult{};

  // Scatter: every shard scores the whole batch over its partition in one
  // shared pass. Per-shard result/counter slabs keep the workers disjoint.
  std::vector<Status> statuses(k);
  std::vector<std::vector<core::SearchResult>> shard_results(
      k, std::vector<core::SearchResult>(nq));
  std::vector<std::vector<core::QueryCounters>> shard_counters(
      k, std::vector<core::QueryCounters>(nq));

  // Same sharing and I/O attribution as ScatterSearch.
  storage::IoScope* caller = storage::IoScope::Current();
  auto search_shard = [&](size_t i) {
    storage::IoScope scope(caller != nullptr && caller->capture_accesses());
    statuses[i] = shards_[i]->index->ExactSearchBatch(
        queries, options, shard_results[i], shard_counters[i]);
    if (caller != nullptr) caller->Absorb(scope);
  };

  if (query_pool_ == nullptr || k == 1) {
    for (size_t i = 0; i < k; ++i) search_shard(i);
  } else {
    GatherLatch latch(k);
    for (size_t i = 0; i < k; ++i) {
      query_pool_->Submit([i, &latch, &search_shard] {
        search_shard(i);
        latch.Done();
      });
    }
    latch.Await();
  }

  // Gather per query: smallest distance wins; exact ties break toward the
  // smaller global id, exactly like the single-query gather.
  for (size_t i = 0; i < k; ++i) {
    COCONUT_RETURN_NOT_OK(statuses[i]);
    for (size_t q = 0; q < nq; ++q) {
      core::SearchResult r = shard_results[i][q];
      if (r.found) {
        r.series_id = shards_[i]->local_to_global[r.series_id];
        core::SearchResult& best = results[q];
        if (!best.found || r.distance_sq < best.distance_sq ||
            (r.distance_sq == best.distance_sq &&
             r.series_id < best.series_id)) {
          best = r;
        }
      }
      if (!counters.empty()) counters[q].Add(shard_counters[i][q]);
    }
  }
  return Status::OK();
}

Result<core::SearchResult> ShardedIndex::ApproxSearch(
    std::span<const float> query, const core::SearchOptions& options,
    core::QueryCounters* counters) {
  return ScatterSearch(query, options, counters, /*exact=*/false);
}

uint64_t ShardedIndex::num_entries() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index->num_entries();
  return total;
}

uint64_t ShardedIndex::index_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index->index_bytes();
  return total;
}

uint64_t ShardedIndex::snapshot_version() const {
  uint64_t total = core::DataSeriesIndex::snapshot_version();
  for (const auto& shard : shards_) {
    total += shard->index->snapshot_version();
  }
  return total;
}

std::string ShardedIndex::describe() const {
  return "Sharded[" + std::to_string(shards_.size()) + "x" +
         shards_[0]->index->describe() + "]";
}

uint64_t ShardedIndex::shard_entries(size_t shard) const {
  return shards_[shard]->index->num_entries();
}

storage::IoStats ShardedIndex::AggregateIoStats() const {
  storage::IoStats total;
  for (const auto& shard : shards_) {
    total.Add(shard->storage->SnapshotIoStats());
  }
  return total;
}

void ShardedIndex::PoolCounters(uint64_t* hits, uint64_t* misses) const {
  uint64_t h = 0;
  uint64_t m = 0;
  for (const auto& shard : shards_) {
    h += shard->pool->hits();
    m += shard->pool->misses();
  }
  if (hits != nullptr) *hits = h;
  if (misses != nullptr) *misses = m;
}

}  // namespace palm
}  // namespace coconut
