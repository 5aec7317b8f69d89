#ifndef COCONUT_DIST_COORDINATOR_H_
#define COCONUT_DIST_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dist/shard_client.h"
#include "dist/topology.h"
#include "palm/api.h"
#include "palm/http_server.h"
#include "palm/query_cache.h"
#include "palm/quota.h"
#include "palm/recommender.h"
#include "series/series.h"

namespace coconut {
namespace palm {
namespace dist {

struct CoordinatorOptions {
  /// Shard servers in key-range order (entry i owns invSAX range i).
  std::vector<ShardEndpoint> shards;
  /// Per-shard connect/request timeouts and retry behavior.
  ShardClientOptions client;
  /// When a shard is unreachable, serve queries from the surviving shards
  /// (the answer covers a subset of the key space and is marked
  /// `degraded` on the wire). Off by default: a dead shard fails reads
  /// with a structured kUnavailable naming it.
  bool degraded_reads = false;
  /// Ship ingest sub-batches with the CRC-checked binary framing
  /// (POST /api/v1/ingest_batch_bin); off = JSON ingest_batch. A bench
  /// comparison knob — binary is strictly better on bytes and CPU.
  bool binary_ingest = true;
};

/// The distributed Palm front door: one process that owns the global
/// series-id space, the global timestamp watermark and the request fan-out
/// across N independent shard-server processes (palm_shardd), each a
/// complete single-process Palm service holding one invSAX key range.
///
/// Placement reuses palm/shard_route.h verbatim, so a coordinator over N
/// shard processes partitions the data exactly like a single-process
/// ShardedStreamingIndex / ShardedIndex with N shards — the dist oracle
/// test pins the two answer-for-answer. The coordinator forwards RAW
/// series (shards z-normalize on ingest with the same function, so the
/// stored bits match the single-process path) and z-normalizes a private
/// copy only to route.
///
/// State model: shard servers persist their data (raw stores, WALs,
/// indexes); the coordinator's own registry — id maps, watermark, dataset
/// staging — is in memory. Recovering coordinator state from the shards
/// after a restart is future work; until then a restarted coordinator
/// serves recovered durable shard streams with structured errors rather
/// than mistranslated ids.
///
/// Thread safety: a registry shared_mutex guards the name maps. A static
/// index is immutable once published, so its queries take no per-handle
/// lock and run concurrently end to end (each shard's ShardClient pools
/// its connections); a drop tombstones the handle instead of waiting them
/// out. A stream's op mutex serializes its ingest, drain and queries: its
/// id maps grow in place under ingest.
class Coordinator : public HttpDispatcher {
 public:
  static Result<std::unique_ptr<Coordinator>> Create(
      CoordinatorOptions options);
  ~Coordinator() override;

  /// The JSON front door (HttpServer plugs in here): quota admission,
  /// params parse, method routing — including the binary ingest endpoint,
  /// negotiated by Content-Type.
  Result<std::string> Dispatch(const HttpRequestInfo& request) override;

  /// Front-door policy, mirroring api::Service: call before serving
  /// concurrent traffic.
  void EnableQueryCache(const api::QueryCacheOptions& options);
  void ConfigureQuotas(const api::QuotaOptions& options);

  /// Coordinator cache/quota counters plus per-shard health (the `shards`
  /// array of server_stats).
  api::ServerStatsResponse ServerStats() const;

  size_t num_shards() const { return shards_.size(); }

  // ---- typed operations (same shapes as api::Service).

  Result<api::RegisterDatasetResponse> RegisterDataset(
      const api::RegisterDatasetRequest& request);
  Result<api::BuildIndexReport> BuildIndex(
      const api::BuildIndexRequest& request);
  Result<api::CreateStreamResponse> CreateStream(
      const api::CreateStreamRequest& request);
  Result<api::IngestBatchReport> IngestBatch(
      const api::IngestBatchRequest& request);
  Result<api::DrainStreamReport> DrainStream(
      const api::DrainStreamRequest& request);
  Result<api::QueryReport> Query(const api::QueryRequest& request);
  api::QueryBatchResponse QueryBatch(const api::QueryBatchRequest& request);
  api::RecommendResponse Recommend(const Scenario& scenario);
  Result<api::ListIndexesResponse> ListIndexes();
  Result<api::DropIndexResponse> DropIndex(
      const api::DropIndexRequest& request);
  Result<api::DropDatasetResponse> DropDataset(
      const api::DropDatasetRequest& request);

 private:
  /// Raw (un-normalized) dataset staged at the coordinator until
  /// build_index routes it; shards z-normalize their slices themselves.
  struct Dataset {
    series::SeriesCollection data{0};
    std::vector<int64_t> timestamps;
  };

  /// One distributed index or stream as the coordinator tracks it.
  struct DistHandle {
    VariantSpec spec;
    bool streaming = false;
    /// Next global series id; ids are burned on rejected admissions,
    /// mirroring the single-process sharded semantics.
    uint64_t next_series_id = 0;
    /// Global timestamp watermark for kStrict/kClamp — the distributed
    /// twin of ShardedStreamingIndex::last_timestamp_.
    int64_t last_timestamp = std::numeric_limits<int64_t>::min();
    /// local_to_global[s][local_id] = global series id, mirroring the
    /// per-shard maps the single-process sharded wrappers keep. Written
    /// before `building` is cleared and never again for a static index;
    /// a stream's maps grow under op_mutex.
    std::vector<std::vector<uint64_t>> local_to_global;
    /// Static builds skip shards whose key range received no series (an
    /// empty dataset cannot be registered remotely); queries skip them
    /// too — an empty inner shard contributes nothing either way.
    std::vector<bool> has_index;
    /// Coordinator-side snapshot stamp for the answer cache, moved on
    /// every ingest and drain. Valid because all mutations of shard data
    /// flow through this coordinator. Every value comes from the
    /// coordinator-wide NextVersion() counter, so a stamp is never reused
    /// — not even by a later index under the same name.
    std::atomic<uint64_t> version{0};
    /// True while the creating thread populates the handle outside the
    /// registry lock; PinHandle skips building handles.
    bool building = true;
    /// Tombstone, set by DropIndex before the shard-side drop is
    /// scattered. A query that pinned the handle checks it after its
    /// gather: once set, the shards may already answer for a replacement
    /// index under the same name, which this handle's id maps would
    /// mistranslate.
    std::atomic<bool> dropped{false};
    /// Serializes a stream's ingest, drain and queries. Static queries
    /// never take it.
    std::mutex op_mutex;
  };

  explicit Coordinator(CoordinatorOptions options);

  std::shared_ptr<DistHandle> PinHandle(const std::string& name) const;

  uint64_t NextVersion() { return next_version_.fetch_add(1); }

  /// num_shards in a wire spec must be 1 or match the topology (the
  /// topology IS the shard split; a different inner sharding would break
  /// the key-range equivalence with the single-process wrappers).
  Status CheckTopologySpec(const VariantSpec& spec) const;

  /// Fans a call out to every shard whose params entry is set (nullopt =
  /// skip). Returns one Result per shard, positionally. `binary` posts
  /// the params string as a binary ingest frame instead of JSON.
  std::vector<Result<std::string>> Scatter(
      const std::string& method,
      const std::vector<std::optional<std::string>>& params, bool idempotent,
      bool binary = false);
  /// Same params for every shard.
  std::vector<Result<std::string>> ScatterSame(const std::string& method,
                                               const std::string& params,
                                               bool idempotent);
  /// Best-effort cleanup scatter (errors ignored) for unwind paths.
  void ScatterCleanup(const std::string& method,
                      const std::vector<std::optional<std::string>>& params);

  /// Gathers per-shard query reports into one: counters/io summed, the
  /// match folded by (distance, global id) with local ids translated
  /// through the handle's maps. `answers` pairs shard ordinals with their
  /// reports. For a stream the caller holds the handle's op mutex (the id
  /// maps grow under it); a static handle's maps are immutable, so its
  /// folds run concurrently with no lock.
  Result<api::QueryReport> FoldShardReports(
      const api::QueryRequest& request, DistHandle* handle,
      const std::vector<std::pair<size_t, api::QueryReport>>& answers,
      bool degraded) const;

  const CoordinatorOptions options_;
  std::vector<std::unique_ptr<ShardClient>> shards_;

  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<const Dataset>> datasets_;
  std::map<std::string, std::shared_ptr<DistHandle>> handles_;
  std::atomic<uint64_t> next_version_{1};

  std::unique_ptr<api::QueryCache> query_cache_;
  std::unique_ptr<api::QuotaEnforcer> quota_;
};

}  // namespace dist
}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_DIST_COORDINATOR_H_
