#include "palm/sharded_streaming_index.h"

#include <algorithm>

#include "palm/shard_route.h"
#include "storage/io_scope.h"

namespace coconut {
namespace palm {

ShardedStreamingIndex::~ShardedStreamingIndex() = default;

Result<std::unique_ptr<ShardedStreamingIndex>> ShardedStreamingIndex::Create(
    storage::StorageManager* root, const std::string& name,
    const Options& options) {
  return Build(root, name, options, /*recover=*/false);
}

Result<std::unique_ptr<ShardedStreamingIndex>> ShardedStreamingIndex::Recover(
    storage::StorageManager* root, const std::string& name,
    const Options& options) {
  if (!options.spec.durable) {
    return Status::InvalidArgument(
        "Recover requires a durable spec (a non-durable stream leaves no "
        "logs to recover from)");
  }
  return Build(root, name, options, /*recover=*/true);
}

Result<std::unique_ptr<ShardedStreamingIndex>> ShardedStreamingIndex::Build(
    storage::StorageManager* root, const std::string& name,
    const Options& options, bool recover) {
  if (root == nullptr) {
    return Status::InvalidArgument("root storage manager is required");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.spec.mode == StreamMode::kStatic) {
    return Status::InvalidArgument(
        "ShardedStreamingIndex wraps streaming variants; use ShardedIndex "
        "for static specs");
  }
  if (!options.spec.async_ingest) {
    return Status::InvalidArgument(
        "sharded streaming requires async_ingest (per-shard strands)");
  }
  auto sharded =
      std::unique_ptr<ShardedStreamingIndex>(new ShardedStreamingIndex(
          options));

  // Each shard is a complete async streaming stack of the wrapped variant;
  // all shards share one background pool (explicit or the process-wide
  // default) but serialize their own cascades on per-shard strands.
  VariantSpec shard_spec = options.spec;
  shard_spec.num_shards = 1;

  for (size_t i = 0; i < options.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    COCONUT_ASSIGN_OR_RETURN(
        shard->storage,
        storage::StorageManager::Create(root->directory() + "/" + name +
                                        "_shard" + std::to_string(i)));
    if (!recover) {
      COCONUT_RETURN_NOT_OK(shard->storage->Clear());
    }
    shard->pool =
        std::make_unique<storage::BufferPool>(options.pool_bytes_per_shard);
    if (options.spec.durable) {
      // The shard's own log: scanned here (recovery) or created fresh.
      stream::Wal::Options wal_options;
      wal_options.test_hook = options.spec.wal_test_hook;
      COCONUT_ASSIGN_OR_RETURN(
          shard->wal,
          stream::Wal::Open(
              shard->storage.get(), "wal",
              static_cast<uint32_t>(options.spec.sax.series_length),
              std::move(wal_options)));
      shard_spec.wal = shard->wal.get();
    }
    if (recover) {
      // The log proved `base_ordinals` series durable before its retained
      // suffix; cut the raw file back to them — replay re-appends the rest.
      COCONUT_ASSIGN_OR_RETURN(
          shard->raw, core::RawSeriesStore::OpenTruncated(
                          shard->storage.get(), "raw",
                          options.spec.sax.series_length,
                          shard->wal->base_ordinals()));
    } else {
      COCONUT_ASSIGN_OR_RETURN(
          shard->raw,
          core::RawSeriesStore::Create(shard->storage.get(), "raw",
                                       options.spec.sax.series_length));
    }
    COCONUT_ASSIGN_OR_RETURN(
        shard->index,
        CreateStreamingIndex(shard_spec, shard->storage.get(), "stream",
                             shard->pool.get(), shard->raw.get()));
    if (recover) {
      stream::WalRecoverOutcome outcome;
      COCONUT_RETURN_NOT_OK(shard->wal->Recover(shard->index.get(),
                                                shard->raw.get(), &outcome));
      if (outcome.local_to_global.size() < outcome.ordinals) {
        return Status::DataLoss(
            "shard " + std::to_string(i) + " recovered " +
            std::to_string(outcome.ordinals) + " ordinals but only " +
            std::to_string(outcome.local_to_global.size()) + " id mappings");
      }
      // A trailing map whose admit never committed maps an ordinal the
      // crash un-consumed; the next admission reuses both.
      outcome.local_to_global.resize(outcome.ordinals);
      for (uint64_t local = 0; local < outcome.local_to_global.size();
           ++local) {
        const uint64_t global_id = outcome.local_to_global[local];
        shard->local_to_global.Set(local, global_id);
        sharded->recovered_next_id_ =
            std::max(sharded->recovered_next_id_, global_id + 1);
      }
      sharded->last_timestamp_ =
          std::max(sharded->last_timestamp_, outcome.watermark);
    }
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

size_t ShardedStreamingIndex::ShardOf(
    std::span<const float> znorm_values) const {
  // Shared with the static ShardedIndex (shard_route.h): a series lands
  // in the same key range whether bulk-built or streamed.
  return ShardOfSeries(znorm_values, options_.spec.sax, shards_.size());
}

Status ShardedStreamingIndex::Ingest(uint64_t series_id,
                                     std::span<const float> znorm_values,
                                     int64_t timestamp) {
  if (static_cast<int>(znorm_values.size()) !=
      options_.spec.sax.series_length) {
    return Status::InvalidArgument("series length mismatch");
  }
  // Stream-order contract against the *global* watermark: a regression
  // that lands on a different shard than the previous maximum must still
  // be rejected (kStrict) or clamped (kClamp) — per-shard watermarks
  // would only see their own subsequence. Non-permissive policies hold
  // watermark_mu_ across the whole admission: check-then-commit in
  // separate critical sections would let two racing producers admit a
  // regression the unsharded index rejects (a global order is inherently
  // one serialization point). kPermissive — the default and the hot path
  // — needs no watermark at all and keeps full cross-shard concurrency.
  if (options_.spec.timestamp_policy == stream::TimestampPolicy::kPermissive) {
    return AdmitToShard(series_id, znorm_values, timestamp);
  }
  std::lock_guard<std::mutex> lock(watermark_mu_);
  if (options_.spec.timestamp_policy == stream::TimestampPolicy::kStrict &&
      timestamp < last_timestamp_) {
    return Status::InvalidArgument(
        "timestamp regression rejected by kStrict policy");
  }
  if (options_.spec.timestamp_policy == stream::TimestampPolicy::kClamp) {
    timestamp = std::max(timestamp, last_timestamp_);
  }
  // The watermark commits only on successful admission: a refused entry
  // (surfaced background error, backpressure reject) must not tighten
  // what kStrict accepts next.
  COCONUT_RETURN_NOT_OK(AdmitToShard(series_id, znorm_values, timestamp));
  last_timestamp_ = std::max(last_timestamp_, timestamp);
  return Status::OK();
}

Status ShardedStreamingIndex::AdmitToShard(uint64_t series_id,
                                           std::span<const float> znorm_values,
                                           int64_t timestamp) {
  // Routing recomputes the summarization the inner Ingest derives again;
  // accepted duplication, same trade as the static ShardedIndex (changing
  // StreamingIndex::Ingest to take a precomputed key would ripple through
  // every variant).
  Shard& shard = *shards_[ShardOf(znorm_values)];
  // The admission path is serialized per shard so the raw ordinal, the
  // id-map slot and the inner ingest agree; a backpressure block inside
  // the inner Ingest holds only this shard's lock, so other shards keep
  // admitting.
  std::lock_guard<std::mutex> ingest_lock(shard.ingest_mu);
  COCONUT_ASSIGN_OR_RETURN(const uint64_t local_id,
                           shard.raw->Append(znorm_values));
  // The map covers the ordinal even if the inner index then refuses the
  // entry (a surfaced background error, a backpressure reject): ids of
  // later admissions keep lining up with the raw file, and searches never
  // return unindexed slots. The slot commits before the inner Ingest
  // publishes the entry citing it, so a gather that sees the entry also
  // sees the mapping.
  shard.local_to_global.Set(local_id, series_id);
  // Durable streams journal the mapping immediately before the record
  // that consumes the ordinal: the inner Ingest logs the admit inside its
  // own critical section, and a refusal burns the ordinal with a hole, so
  // replay keeps ids lined up with the raw file either way. Everything
  // here is under ingest_mu, so map and admit/hole always share a commit.
  if (shard.wal != nullptr) {
    shard.wal->AppendMap(series_id);
  }
  const Status admitted =
      shard.index->Ingest(local_id, znorm_values, timestamp);
  if (!admitted.ok() && shard.wal != nullptr) {
    shard.wal->AppendHole();
  }
  return admitted;
}

Status ShardedStreamingIndex::CommitDurable() {
  // Fan the ack gate out: every shard's pending records become durable
  // before the batch is acknowledged. Drain all shards even on error so
  // one failed log does not leave another's batch uncommitted forever.
  Status first;
  for (auto& shard : shards_) {
    if (shard->wal == nullptr) continue;
    const Status committed = shard->wal->Commit();
    if (first.ok() && !committed.ok()) first = committed;
  }
  return first;
}

Status ShardedStreamingIndex::TruncateDurableLogs() {
  Status first;
  for (auto& shard : shards_) {
    if (shard->wal == nullptr) continue;
    const Status truncated = shard->wal->TruncateBefore(shard->raw.get());
    if (first.ok() && !truncated.ok()) first = truncated;
  }
  return first;
}

Status ShardedStreamingIndex::FlushAll() {
  // Cross-shard drain barrier: every shard's buffer seals and its strand
  // empties. Shards drain independently, so an error in one does not
  // leave another's cascade half-deferred — drain them all, surface the
  // first failure.
  Status first;
  for (auto& shard : shards_) {
    const Status flushed = shard->raw->Flush();
    if (first.ok() && !flushed.ok()) first = flushed;
    const Status drained = shard->index->FlushAll();
    if (first.ok() && !drained.ok()) first = drained;
  }
  return first;
}

Result<core::SearchResult> ShardedStreamingIndex::ScatterSearch(
    std::span<const float> query, const core::SearchOptions& options,
    core::QueryCounters* counters, bool exact) {
  const size_t k = shards_.size();
  std::vector<Result<core::SearchResult>> results(
      k, Result<core::SearchResult>(Status::Internal("not executed")));
  std::vector<core::QueryCounters> shard_counters(k);

  // Inner async streaming indexes are snapshot-isolated — each shard's
  // search evaluates one atomic snapshot of that shard's state and never
  // blocks on (or is corrupted by) its concurrent seals, so no per-shard
  // serialization is needed here. Each task charges a scope of its own,
  // folded into the caller's (see ShardedIndex::ScatterSearch).
  storage::IoScope* caller = storage::IoScope::Current();
  auto search_shard = [&](size_t i) {
    storage::IoScope scope(caller != nullptr && caller->capture_accesses());
    results[i] = exact ? shards_[i]->index->ExactSearch(query, options,
                                                        &shard_counters[i])
                       : shards_[i]->index->ApproxSearch(query, options,
                                                         &shard_counters[i]);
    if (caller != nullptr) caller->Absorb(scope);
  };

  if (query_pool_ == nullptr || k == 1) {
    for (size_t i = 0; i < k; ++i) search_shard(i);
  } else {
    WaitGroup wg;
    wg.Add(k);
    for (size_t i = 0; i < k; ++i) {
      query_pool_->Submit([i, &wg, &search_shard] {
        search_shard(i);
        wg.Done();
      });
    }
    wg.Wait();
  }

  // Gather: smallest distance wins; exact ties break toward the smaller
  // global id so the answer is deterministic whatever the shard layout.
  core::SearchResult best;
  for (size_t i = 0; i < k; ++i) {
    COCONUT_RETURN_NOT_OK(results[i].status());
    core::SearchResult r = results[i].value();
    if (r.found) {
      r.series_id = shards_[i]->local_to_global.Get(r.series_id);
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

Result<core::SearchResult> ShardedStreamingIndex::ExactSearch(
    std::span<const float> query, const core::SearchOptions& options,
    core::QueryCounters* counters) {
  return ScatterSearch(query, options, counters, /*exact=*/true);
}

Result<core::SearchResult> ShardedStreamingIndex::ApproxSearch(
    std::span<const float> query, const core::SearchOptions& options,
    core::QueryCounters* counters) {
  return ScatterSearch(query, options, counters, /*exact=*/false);
}

uint64_t ShardedStreamingIndex::num_entries() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index->num_entries();
  return total;
}

size_t ShardedStreamingIndex::num_partitions() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->index->num_partitions();
  return total;
}

uint64_t ShardedStreamingIndex::index_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->index->index_bytes();
  return total;
}

std::string ShardedStreamingIndex::describe() const {
  return "ShardedStream[" + std::to_string(shards_.size()) + "x" +
         shards_[0]->index->describe() + "]";
}

stream::StreamingStats ShardedStreamingIndex::SnapshotStats() const {
  // Each shard's snapshot is taken under that shard's state lock, so
  // every addend is internally consistent; the aggregate is the sum of K
  // such snapshots read in order (consecutive aggregate reads therefore
  // never see entries shrink — each shard's later read dominates its
  // earlier one).
  stream::StreamingStats total;
  for (const auto& shard : shards_) {
    total.Add(shard->index->SnapshotStats());
  }
  return total;
}

storage::IoStats ShardedStreamingIndex::AggregateIoStats() const {
  storage::IoStats total;
  for (const auto& shard : shards_) {
    total.Add(shard->storage->SnapshotIoStats());
  }
  return total;
}

}  // namespace palm
}  // namespace coconut
