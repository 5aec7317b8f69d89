#ifndef COCONUT_PALM_SERVER_H_
#define COCONUT_PALM_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/index.h"
#include "palm/api.h"
#include "palm/factory.h"
#include "palm/recommender.h"
#include "storage/storage_manager.h"
#include "stream/streaming_index.h"

namespace coconut {
namespace palm {

/// A similarity query as the GUI client would issue it. The canonical
/// definition lives in the typed API layer; this alias preserves the
/// historical palm::QueryRequest spelling.
using QueryRequest = api::QueryRequest;

/// The Coconut Palm algorithms server (Figure 1, right half) — the
/// legacy in-process facade over the typed service layer (palm/api.h).
/// Every method is a thin adapter: it forwards to api::Service and
/// serializes the typed response, so the JSON these methods return is
/// byte-identical to what the wire transport (palm/http_server.h) sends
/// for the same operation. New code should talk to api::Service directly;
/// this class stays for the existing examples, benches and tests.
class Server {
 public:
  /// Creates a server rooted at `root_dir` (created if absent).
  static Result<std::unique_ptr<Server>> Create(const std::string& root_dir,
                                                size_t pool_bytes_per_index =
                                                    4ull << 20);

  /// Registers an in-memory dataset (z-normalized on ingestion). Optional
  /// `timestamps` (one per series) for streaming experiments; defaults to
  /// the series ordinal.
  Status RegisterDataset(const std::string& name,
                         const series::SeriesCollection& data,
                         const std::vector<int64_t>* timestamps);

  /// Builds a static index over a registered dataset. Returns the build
  /// report JSON: construction seconds, sequential/random I/O, bytes.
  Result<std::string> BuildIndex(const std::string& index_name,
                                 const VariantSpec& spec,
                                 const std::string& dataset_name);

  /// Creates an empty streaming index.
  Result<std::string> CreateStream(const std::string& stream_name,
                                   const VariantSpec& spec);

  /// Feeds a batch into a streaming index. Series ids continue from the
  /// stream's current count. Returns the ingest report JSON; for async
  /// streams it includes the background-progress snapshot (pending seal
  /// tasks, completed seals/merges) without waiting for them.
  Result<std::string> IngestBatch(const std::string& stream_name,
                                  const series::SeriesCollection& batch,
                                  const std::vector<int64_t>& timestamps);

  /// Drain barrier for a streaming index: blocks until every deferred
  /// seal, flush and merge cascade has completed (FlushAll), then returns
  /// a JSON stats report of the quiesced stream. After a drain the stream
  /// answers identically to a synchronous build over the same input.
  Result<std::string> DrainStream(const std::string& stream_name);

  /// Executes a query against a static or streaming index; returns the
  /// query report JSON (match, distance, latency, I/O, optional heat map).
  Result<std::string> Query(const QueryRequest& request);

  /// Executes independent requests concurrently on a small thread pool and
  /// returns one result per request, positionally. Requests that target the
  /// same index run as one group (its exact requests share one scan);
  /// requests for distinct indexes run in parallel. A sharded index
  /// (spec.num_shards > 1) additionally fans each query out across its
  /// shards on its own pool — scatter-gather under the same facade — so
  /// one request exploits shard parallelism even when the batch serializes
  /// on its index. `threads` = 0 picks hardware concurrency (capped at 8).
  std::vector<Result<std::string>> QueryBatch(
      const std::vector<QueryRequest>& requests, size_t threads = 0);

  /// Runs the recommender; returns {variant, spec knobs, rationale[]}.
  std::string RecommendJson(const Scenario& scenario);

  /// JSON array describing every index and stream (the GUI's index list).
  std::string ListIndexes() const;

  /// Drops an index or stream: drains background work, releases its
  /// storage directory, buffer pool and raw store. Returns the drop
  /// report JSON.
  Result<std::string> DropIndex(const std::string& index_name);

  /// Forgets a registered dataset (indexes built from it are unaffected).
  Result<std::string> DropDataset(const std::string& dataset_name);

  /// The typed service this facade adapts — the JSON-RPC Dispatch entry
  /// point and the seam the HTTP transport plugs into.
  api::Service* service() { return service_.get(); }

  /// Direct access for examples/benches (nullptr when absent).
  core::DataSeriesIndex* static_index(const std::string& name);
  stream::StreamingIndex* stream_index(const std::string& name);
  storage::StorageManager* index_storage(const std::string& name);

 private:
  explicit Server(std::unique_ptr<api::Service> service)
      : service_(std::move(service)) {}

  std::unique_ptr<api::Service> service_;
};

}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_PALM_SERVER_H_
