#ifndef COCONUT_DIST_SHARD_CLIENT_H_
#define COCONUT_DIST_SHARD_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dist/topology.h"
#include "palm/api.h"
#include "palm/http_client.h"

namespace coconut {
namespace palm {
namespace dist {

/// Reconstructs the Status a remote service serialized as an ApiError, so
/// shard errors cross the coordinator with their original code and
/// message. Unknown codes map to kInternal.
Status StatusFromApiError(const api::ApiError& error);

struct ShardClientOptions {
  /// Bound on establishing the TCP connection to the shard.
  int connect_timeout_ms = 2000;
  /// Bound on one whole request round trip (send + response).
  int request_timeout_ms = 10000;
};

/// One shard server as the coordinator sees it: a keep-alive JSON/binary
/// RPC channel with timeouts, one bounded retry, and health counters.
///
/// Error contract: every transport-level failure (connect refused,
/// connect/request timeout, torn response) surfaces as
/// StatusCode::kUnavailable with the shard's endpoint in the message —
/// the coordinator's degraded-read logic keys on exactly that code.
/// Application-level failures (the shard answered with a non-2xx status
/// and an ApiError body) are decoded back into the original Status code
/// and message, and do NOT count against the shard's health: a NotFound
/// is a healthy shard saying no.
///
/// Retry policy: idempotent calls (query, stats, drain) are re-sent once
/// after a transport failure; non-idempotent calls (ingest) are never
/// retried — a request timeout leaves the shard possibly mid-apply, and a
/// blind resend would duplicate the batch. The retry reconnects from
/// scratch, so it also covers a shard that restarted between calls.
///
/// Thread-safe, and concurrent: each call checks a keep-alive connection
/// out of a small LIFO pool, runs its round trip outside any lock, and
/// checks the connection back in (closed first after a transport
/// failure). The pool holds at most as many connections as the
/// HttpServerOptions default worker count, which palm_shardd runs. A
/// shard worker owns one connection at a time and an idle keep-alive
/// connection holds it for up to keep_alive_timeout_ms, so one
/// connection past the shard's worker count could queue for seconds
/// behind idle ones; callers beyond the cap wait for a free connection
/// instead.
class ShardClient {
 public:
  explicit ShardClient(ShardEndpoint endpoint, ShardClientOptions options = {});

  const ShardEndpoint& endpoint() const { return endpoint_; }

  /// POST /api/v1/<method> with a JSON params body. Returns the response
  /// body on HTTP 2xx; decodes the ApiError body otherwise.
  Result<std::string> Call(const std::string& method,
                           const std::string& params_json, bool idempotent);

  /// POST /api/v1/ingest_batch_bin with the binary framing Content-Type.
  /// Never retried (ingest is not idempotent).
  Result<std::string> CallBinaryIngest(const std::string& frame);

  struct Health {
    /// False once the most recent call failed at the transport level.
    bool healthy = true;
    /// Logical calls issued (retries are not counted separately).
    uint64_t requests = 0;
    /// Calls that failed at the transport level after any retry.
    uint64_t failures = 0;
    /// Transport failures since the last successful round trip.
    uint64_t consecutive_failures = 0;
  };
  Health health() const;

 private:
  /// Blocks until a pooled connection is idle or the pool may grow. The
  /// round trip checks the connection back in.
  std::unique_ptr<BlockingHttpClient> Checkout();

  Result<std::string> RoundTrip(
      const std::string& target, const std::string& body,
      const std::vector<std::pair<std::string, std::string>>& headers,
      bool may_retry);

  const ShardEndpoint endpoint_;
  const BlockingHttpClientOptions client_options_;
  /// Cap on connections to the shard (see the class comment).
  const size_t max_connections_;
  /// Guards the pool and the health counters, never a round trip.
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  /// Checked-in connections; the back is the most recently used, so a
  /// light load keeps reusing one warm connection.
  std::vector<std::unique_ptr<BlockingHttpClient>> idle_;
  /// Connections created so far (idle + checked out); never shrinks.
  size_t created_ = 0;
  uint64_t requests_ = 0;
  uint64_t failures_ = 0;
  uint64_t consecutive_failures_ = 0;
};

}  // namespace dist
}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_DIST_SHARD_CLIENT_H_
