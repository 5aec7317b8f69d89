#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "dist/binary_codec.h"
#include "palm/http_client.h"

namespace perfbench {

namespace {

using Headers = std::vector<std::pair<std::string, std::string>>;

coconut::palm::BlockingHttpClientOptions ClientOptions() {
  coconut::palm::BlockingHttpClientOptions options;
  options.connect_timeout_ms = 5000;
  options.request_timeout_ms = 30000;
  return options;
}

/// Sends one request, filling status/body/ok, and (traced) records the
/// client-side "http" span. Returns the send time.
Clock::time_point Send(coconut::palm::BlockingHttpClient* client,
                       const Request& request, Tracer* tracer,
                       uint64_t request_id, Outcome* out) {
  Headers headers;
  uint64_t span_id = 0;
  if (request.binary) {
    headers.emplace_back("Content-Type",
                         coconut::palm::dist::kBinaryIngestContentType);
  }
  if (tracer != nullptr) {
    span_id = tracer->NewId();
    headers.emplace_back("Authorization",
                         "Bearer trace-" + std::to_string(request_id) + "-" +
                             std::to_string(span_id));
    out->traced = true;
  }
  const Clock::time_point start = Clock::now();
  auto response = client->Post(request.target, request.body, headers);
  const Clock::time_point end = Clock::now();
  if (tracer != nullptr) {
    tracer->Record(span_id, 0, request_id, "http", start, end);
  }
  if (response.ok()) {
    out->status = response.value().status;
    out->body = std::move(response.value().body);
    out->ok = out->status == 200;
  }
  return start;
}

}  // namespace

std::vector<Outcome> RunOpenLoop(const LoadSpec& spec,
                                 const std::vector<Arrival>& schedule) {
  std::vector<Outcome> outcomes(schedule.size());
  // Arrival indices per connection group: one shared group, or one group
  // per operation type.
  std::vector<std::vector<size_t>> groups;
  std::vector<size_t> group_connections;
  if (spec.connections_per_type.empty()) {
    groups.emplace_back(schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) groups[0][i] = i;
    group_connections.push_back(spec.connections);
  } else {
    groups.resize(spec.connections_per_type.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
      groups[schedule[i].type].push_back(i);
    }
    group_connections = spec.connections_per_type;
  }
  std::vector<std::atomic<size_t>> next(groups.size());
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t c = 0; c < group_connections[g]; ++c) {
      threads.emplace_back([&, g] {
        coconut::palm::BlockingHttpClient client("127.0.0.1", spec.port,
                                                 ClientOptions());
        for (size_t k = next[g].fetch_add(1); k < groups[g].size();
             k = next[g].fetch_add(1)) {
          const size_t i = groups[g][k];
          const Arrival& a = schedule[i];
          Outcome& out = outcomes[i];
          out.type = a.type;
          out.ordinal = a.ordinal;
          const Request request = spec.make(a.type, a.ordinal);
          const Clock::time_point due =
              t0 + std::chrono::nanoseconds(a.due_ns);
          std::this_thread::sleep_until(due);
          if (spec.before_send) out.tag = spec.before_send(a.type, a.ordinal);
          const bool traced = spec.tracer != nullptr && i % 2 == 0;
          const Clock::time_point sent = Send(
              &client, request, traced ? spec.tracer : nullptr, i + 1, &out);
          out.lag_ms = MsBetween(due, sent);
          out.latency_ms = MsBetween(due, Clock::now());
          if (spec.after_reply) spec.after_reply(out);
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();
  return outcomes;
}

namespace {
/// Replies per second over the phase's whole seconds: the mean of the
/// middle half of the per-second counts (type < 0 counts every type).
double PerSecondRate(const std::vector<Outcome>& outcomes, double seconds,
                     int type) {
  std::vector<double> per_second(static_cast<size_t>(seconds), 0.0);
  for (const Outcome& o : outcomes) {
    const size_t s = static_cast<size_t>(o.done_s);
    if (o.ok && (type < 0 || o.type == type) && s < per_second.size()) {
      per_second[s] += 1.0;
    }
  }
  if (per_second.empty()) return 0.0;
  std::sort(per_second.begin(), per_second.end());
  const size_t trim = per_second.size() / 4;
  double sum = 0.0;
  for (size_t s = trim; s < per_second.size() - trim; ++s) sum += per_second[s];
  return sum / static_cast<double>(per_second.size() - 2 * trim);
}
}  // namespace

double ClosedLoop::Throughput(int type) const {
  return PerSecondRate(outcomes, seconds, type);
}

double ClosedLoop::TotalThroughput() const {
  return PerSecondRate(outcomes, seconds, -1);
}

ClosedLoop RunClosedLoop(const LoadSpec& spec, double seconds,
                         const std::function<int(uint64_t)>& type_of,
                         int num_types, uint64_t first_ordinal) {
  std::mutex mu;
  ClosedLoop result;
  std::atomic<uint64_t> next{0};
  std::vector<std::atomic<uint64_t>> per_type(num_types);
  for (auto& counter : per_type) counter = first_ordinal;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.connections; ++c) {
    threads.emplace_back([&] {
      coconut::palm::BlockingHttpClient client("127.0.0.1", spec.port,
                                               ClientOptions());
      std::vector<Outcome> mine;
      while (Clock::now() < end) {
        const uint64_t k = next.fetch_add(1);
        Outcome out;
        out.type = type_of(k);
        out.ordinal = per_type[out.type].fetch_add(1);
        const Request request = spec.make(out.type, out.ordinal);
        if (spec.before_send) out.tag = spec.before_send(out.type, out.ordinal);
        const Clock::time_point sent =
            Send(&client, request, nullptr, 0, &out);
        const Clock::time_point done = Clock::now();
        out.latency_ms = MsBetween(sent, done);
        out.done_s = MsBetween(start, done) / 1e3;
        if (spec.after_reply) spec.after_reply(out);
        mine.push_back(std::move(out));
      }
      std::lock_guard<std::mutex> lock(mu);
      for (Outcome& o : mine) result.outcomes.push_back(std::move(o));
    });
  }
  for (std::thread& t : threads) t.join();
  result.seconds = SecondsSince(start);
  return result;
}

coconut::Result<std::string> TracingDispatcher::Dispatch(
    const coconut::palm::HttpRequestInfo& request) {
  const std::string& token = request.client_token;
  uint64_t request_id = 0;
  uint64_t parent = 0;
  if (token.rfind("trace-", 0) == 0) {
    char* rest = nullptr;
    request_id = std::strtoull(token.c_str() + 6, &rest, 10);
    if (rest != nullptr && *rest == '-') {
      parent = std::strtoull(rest + 1, nullptr, 10);
    }
  }
  if (parent == 0) return inner_->Dispatch(request);
  const uint64_t id = tracer_->NewId();
  const Clock::time_point start = Clock::now();
  coconut::Result<std::string> result = inner_->Dispatch(request);
  tracer_->Record(id, parent, request_id, "dispatch", start, Clock::now());
  return result;
}

std::vector<Samples> SamplesByType(const std::vector<Outcome>& outcomes,
                                   int num_types) {
  std::vector<Samples> samples(num_types);
  for (const Outcome& o : outcomes) {
    if (o.ok) {
      samples[o.type].Add(o.latency_ms);
    } else {
      samples[o.type].AddFailure();
    }
  }
  return samples;
}

Samples LagSamples(const std::vector<Outcome>& outcomes) {
  Samples lag;
  for (const Outcome& o : outcomes) lag.Add(o.lag_ms);
  return lag;
}

}  // namespace perfbench
