#include "dist/shard_client.h"

#include "common/json.h"
#include "dist/binary_codec.h"
#include "palm/api.h"
#include "palm/http_server.h"

namespace coconut {
namespace palm {
namespace dist {

namespace {

Status MakeStatus(StatusCode code, std::string msg) {
  switch (code) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kIoError:
      return Status::IoError(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(msg));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case StatusCode::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case StatusCode::kUnauthenticated:
      return Status::Unauthenticated(std::move(msg));
    case StatusCode::kDataLoss:
      return Status::DataLoss(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case StatusCode::kOk:
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(std::move(msg));
}

/// Decodes a shard's non-2xx response back into the Status the shard's
/// service produced, so errors propagate through the coordinator with
/// their original code and message. An unparseable body (a torn reply, a
/// non-Palm server on the port) is an Internal error naming the shard.
Status StatusFromErrorBody(const ShardEndpoint& endpoint, int http_status,
                           const std::string& body) {
  Result<JsonValue> parsed = JsonParse(body);
  if (parsed.ok()) {
    Result<api::ApiError> error = api::ApiError::FromJson(parsed.value());
    if (error.ok()) return StatusFromApiError(error.value());
  }
  return Status::Internal("shard " + endpoint.ToString() + " returned HTTP " +
                          std::to_string(http_status) +
                          " with an unparseable error body");
}

BlockingHttpClientOptions ToClientOptions(const ShardClientOptions& options) {
  BlockingHttpClientOptions client_options;
  client_options.connect_timeout_ms = options.connect_timeout_ms;
  client_options.request_timeout_ms = options.request_timeout_ms;
  return client_options;
}

}  // namespace

Status StatusFromApiError(const api::ApiError& error) {
  for (int c = 1; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    const auto code = static_cast<StatusCode>(c);
    if (error.code == api::StatusCodeToApiCode(code)) {
      return MakeStatus(code, error.message);
    }
  }
  return Status::Internal("unknown remote error code '" + error.code +
                          "': " + error.message);
}

ShardClient::ShardClient(ShardEndpoint endpoint, ShardClientOptions options)
    : endpoint_(std::move(endpoint)),
      client_options_(ToClientOptions(options)),
      max_connections_(HttpServerOptions{}.threads) {}

Result<std::string> ShardClient::Call(const std::string& method,
                                      const std::string& params_json,
                                      bool idempotent) {
  return RoundTrip("/api/v1/" + method, params_json, {}, idempotent);
}

Result<std::string> ShardClient::CallBinaryIngest(const std::string& frame) {
  return RoundTrip("/api/v1/ingest_batch_bin", frame,
                   {{"Content-Type", kBinaryIngestContentType}},
                   /*may_retry=*/false);
}

std::unique_ptr<BlockingHttpClient> ShardClient::Checkout() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock,
                [&] { return !idle_.empty() || created_ < max_connections_; });
  if (idle_.empty()) {
    ++created_;
    return std::make_unique<BlockingHttpClient>(endpoint_.host, endpoint_.port,
                                                client_options_);
  }
  std::unique_ptr<BlockingHttpClient> client = std::move(idle_.back());
  idle_.pop_back();
  return client;
}

Result<std::string> ShardClient::RoundTrip(
    const std::string& target, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers,
    bool may_retry) {
  std::unique_ptr<BlockingHttpClient> client = Checkout();
  Result<HttpClientResponse> response = client->Post(target, body, headers);
  if (!response.ok() && may_retry) {
    // One bounded retry from a fresh connection: covers a shard that
    // restarted (stale keep-alive socket) or a transient connect refusal.
    // Only idempotent calls reach here, so a request the shard may have
    // already applied is never re-sent.
    client->Close();
    response = client->Post(target, body, headers);
  }
  // A connection that failed mid-request may hold a half-read response;
  // it goes back to the pool closed, to reconnect on its next use.
  if (!response.ok()) client->Close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle_.push_back(std::move(client));
    ++requests_;
    if (!response.ok()) {
      ++failures_;
      ++consecutive_failures_;
    } else {
      consecutive_failures_ = 0;
    }
  }
  idle_cv_.notify_one();
  if (!response.ok()) {
    return Status::Unavailable("shard " + endpoint_.ToString() +
                               " unavailable: " +
                               response.status().message());
  }
  if (response.value().status < 200 || response.value().status >= 300) {
    return StatusFromErrorBody(endpoint_, response.value().status,
                               response.value().body);
  }
  return std::move(response.value().body);
}

ShardClient::Health ShardClient::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  Health health;
  health.healthy = consecutive_failures_ == 0;
  health.requests = requests_;
  health.failures = failures_;
  health.consecutive_failures = consecutive_failures_;
  return health;
}

}  // namespace dist
}  // namespace palm
}  // namespace coconut
