// Load generation against a live palm::HttpServer: an open loop that sends
// each request at its due time regardless of how fast earlier ones were
// answered, and a closed loop of callers that each wait for their reply.
// Every response is kept so the answer checks can run after the timed
// region; latency is measured from the due time (open) or the send
// (closed).
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "palm/http_server.h"

namespace perfbench {

/// One HTTP request of the workload.
struct Request {
  std::string target;  // e.g. "/api/v1/query"
  std::string body;
  bool binary = false;  // body is a CPBI ingest frame
};

/// What happened to one request. `ok` starts as "HTTP 200" and the answer
/// checks clear it on a wrong answer, so a mismatch counts as a failure.
struct Outcome {
  int type = 0;
  uint64_t ordinal = 0;
  bool ok = false;
  int status = 0;  // 0 = transport failure
  std::string body;
  double latency_ms = 0.0;
  double lag_ms = 0.0;  // send time minus due time (open loop)
  double done_s = 0.0;  // reply time, seconds since the phase started
  bool traced = false;
  /// Workload tag taken just before sending (see LoadSpec::before_send).
  uint64_t tag = 0;
};

struct LoadSpec {
  uint16_t port = 0;
  size_t connections = 4;
  /// Open loop only: when set, connections[t] of the `connections` serve
  /// operation type t alone, so one type's stalls cannot hold another's
  /// requests back at the client.
  std::vector<size_t> connections_per_type;
  /// Builds request `ordinal` of operation `type`. Called on the sending
  /// thread ahead of the due time; must be thread-safe and deterministic.
  std::function<Request(int type, uint64_t ordinal)> make;
  /// Optional: runs right before the send; its value lands in Outcome::tag.
  std::function<uint64_t(int type, uint64_t ordinal)> before_send;
  /// Optional: runs on the sending thread after each reply.
  std::function<void(const Outcome&)> after_reply;
  /// When set, every second request carries a trace token and is
  /// recorded as an "http" span; the server-side dispatcher records the
  /// child "dispatch" span of the same request.
  Tracer* tracer = nullptr;
};

/// Open loop over `schedule`; returns one Outcome per arrival, in
/// schedule order. A request unanswered after 30 s is a failure.
std::vector<Outcome> RunOpenLoop(const LoadSpec& spec,
                                 const std::vector<Arrival>& schedule);

/// A closed-loop phase: its replies and how long it really ran (from the
/// start to the last reply).
struct ClosedLoop {
  std::vector<Outcome> outcomes;
  double seconds = 0.0;
  /// Successful (and, after the checks, correct) replies of `type` per
  /// second: the mean of the middle half of the phase's whole seconds, so
  /// a short stall of the machine does not move it.
  double Throughput(int type = 0) const;
  /// Same, counting the replies of every type.
  double TotalThroughput() const;
};

/// Closed loop: `spec.connections` callers, each sending its next request
/// as soon as the previous one returns, until `seconds` have passed.
/// `type_of(k)` picks the operation of the k-th request (k counts across
/// callers; the ordinal passed to make() counts within the type, starting
/// at `first_ordinal`).
ClosedLoop RunClosedLoop(const LoadSpec& spec, double seconds,
                         const std::function<int(uint64_t)>& type_of,
                         int num_types, uint64_t first_ordinal);

/// Forwards to an inner dispatcher; for requests carrying a trace token
/// (Authorization: Bearer trace-<request>-<parent>) it records a
/// "dispatch" span under the client's "http" span.
class TracingDispatcher : public coconut::palm::HttpDispatcher {
 public:
  TracingDispatcher(coconut::palm::HttpDispatcher* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  coconut::Result<std::string> Dispatch(
      const coconut::palm::HttpRequestInfo& request) override;

 private:
  coconut::palm::HttpDispatcher* inner_;
  Tracer* tracer_;
};

/// The api::Service behind the HttpDispatcher seam (the same forwarding
/// the HttpServer does for a bare Service).
class ServiceDispatcher : public coconut::palm::HttpDispatcher {
 public:
  explicit ServiceDispatcher(coconut::palm::api::Service* service)
      : service_(service) {}
  coconut::Result<std::string> Dispatch(
      const coconut::palm::HttpRequestInfo& request) override {
    return service_->Dispatch(request.method, request.body,
                              request.client_token);
  }

 private:
  coconut::palm::api::Service* service_;
};

/// Per-type latency samples of a phase (failures and wrong answers +inf).
std::vector<Samples> SamplesByType(const std::vector<Outcome>& outcomes,
                                   int num_types);

/// Send lag of the open-loop arrivals, ms.
Samples LagSamples(const std::vector<Outcome>& outcomes);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
