#include "common.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/json.h"
#include "common/rng.h"
#include "oracle.h"
#include "series/kernels.h"
#include "series/series.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Tally::Add(const std::string& type, const std::vector<Outcome>& outcomes,
                int type_id) {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Outcome& o : outcomes) {
    if (o.type != type_id) continue;
    ++attempted;
    if (!o.ok) ++failed;
  }
  Add(type, attempted, failed);
}

void Tally::Add(const std::string& type, uint64_t attempted, uint64_t failed) {
  for (auto& row : rows_) {
    if (row.first == type) {
      row.second.first += attempted;
      row.second.second += failed;
      return;
    }
  }
  rows_.push_back({type, {attempted, failed}});
}

uint64_t Tally::attempted() const {
  uint64_t n = 0;
  for (const auto& row : rows_) n += row.second.first;
  return n;
}

uint64_t Tally::failed() const {
  uint64_t n = 0;
  for (const auto& row : rows_) n += row.second.second;
  return n;
}

void Tally::Describe(Report* report) const {
  for (const auto& [type, counts] : rows_) {
    const double share =
        counts.first == 0 ? 0.0
                          : 100.0 * static_cast<double>(counts.second) /
                                static_cast<double>(counts.first);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "ops %-14s attempted=%llu succeeded=%llu failed=%llu "
                  "(%.2f%%)",
                  type.c_str(), static_cast<unsigned long long>(counts.first),
                  static_cast<unsigned long long>(counts.first - counts.second),
                  static_cast<unsigned long long>(counts.second), share);
    report->Note(line);
  }
}

FrontDoor::FrontDoor(coconut::palm::api::Service* service, Tracer* tracer,
                     size_t threads) {
  coconut::palm::HttpServerOptions options;
  options.threads = threads;
  if (tracer == nullptr) {
    server_ = Require(coconut::palm::HttpServer::Start(service, options),
                      "http server");
    return;
  }
  adapter_ = std::make_unique<ServiceDispatcher>(service);
  Start(adapter_.get(), tracer, threads);
}

FrontDoor::FrontDoor(coconut::palm::HttpDispatcher* dispatcher, Tracer* tracer,
                     size_t threads) {
  Start(dispatcher, tracer, threads);
}

void FrontDoor::Start(coconut::palm::HttpDispatcher* dispatcher,
                      Tracer* tracer, size_t threads) {
  coconut::palm::HttpServerOptions options;
  options.threads = threads;
  if (tracer != nullptr) {
    tracing_ = std::make_unique<TracingDispatcher>(dispatcher, tracer);
    dispatcher = tracing_.get();
  }
  server_ = Require(coconut::palm::HttpServer::Start(dispatcher, options),
                    "http server");
}

FrontDoor::~FrontDoor() {
  if (server_ != nullptr) server_->Stop();
}

void PhaseTimer::Mark(const char* phase) {
  const Clock::time_point now = Clock::now();
  char part[64];
  std::snprintf(part, sizeof(part), " %s %.2fs", phase,
                std::chrono::duration<double>(now - last_).count());
  text_ += part;
  last_ = now;
}

void Require(const coconut::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

double MedianSetupSeconds(int reps, const std::function<void(int)>& setup,
                          const std::function<void(int)>& teardown) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    if (r > 0) teardown(r - 1);
    const Clock::time_point start = Clock::now();
    setup(r);
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

void LatencyMetrics(const std::string& prefix, const Samples& samples,
                    Report* report) {
  // The p50 is the median over consecutive windows of >= 1000 samples, so
  // one stall period of the machine cannot move it; the p99 is over the
  // whole phase.
  constexpr size_t kPerWindow = 1000;
  constexpr size_t kMaxWindows = 5;
  report->Set(prefix + "_p50_ms",
              samples.WindowedPercentile(0.50, kPerWindow, kMaxWindows), "ms");
  report->Set(prefix + "_p99_ms", samples.Percentile(0.99), "ms");
  char line[240];
  std::snprintf(line, sizeof(line),
                "%s latency: %zu samples (%zu failed) in %zu p50 windows, "
                "%zu beyond p99%s",
                prefix.c_str(), samples.attempted(), samples.failed(),
                samples.Windows(kPerWindow, kMaxWindows),
                SamplesBeyond(samples.attempted(), 0.99),
                samples.Resolved(0.99) ? ""
                                       : " -- TOO FEW: p99 is not resolved");
  report->Note(line);
}

void LagMetric(const std::vector<Outcome>& open_loop, Report* report) {
  const Samples lag = LagSamples(open_loop);
  const double p99 = lag.Percentile(0.99);
  report->Set("gen.lag_p99_ms", p99, "ms");
  if (p99 > 5.0) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "WARNING generator behind schedule: send lag p99 %.2f ms "
                  "(latencies still count from the due time)",
                  p99);
    report->Note(line);
  }
}

uint64_t IngestedCount(const std::string& body) {
  auto json = coconut::JsonParse(body);
  if (!json.ok()) return 0;
  auto report =
      coconut::palm::api::IngestBatchReport::FromJson(json.value());
  return report.ok() ? report.value().ingested : 0;
}

std::vector<float> NoisyQuery(std::span<const float> base, double sigma,
                              uint64_t seed) {
  coconut::Rng rng(seed);
  std::vector<float> q(base.begin(), base.end());
  for (float& v : q) v += static_cast<float>(sigma * rng.NextGaussian());
  coconut::series::ZNormalize(q);
  return q;
}

void DescribeRun(const RunConfig& config, const std::string& workload,
                 Report* report) {
  char line[240];
  std::snprintf(line, sizeof(line),
                "run workload=%s seed=%llu seconds=%.1f trace=%d nproc=%zu "
                "kernel_isa=%s build_type=%s",
                workload.c_str(), static_cast<unsigned long long>(config.seed),
                config.seconds, config.trace ? 1 : 0, config.nproc,
                coconut::series::kernels::IsaName(
                    coconut::series::kernels::ActiveIsa()),
                PERFBENCH_BUILD_TYPE);
  report->Note(line);
}

size_t ParallelCount(size_t n, size_t threads,
                     const std::function<bool(size_t)>& check) {
  std::atomic<size_t> next{0};
  std::atomic<size_t> bad{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        if (!check(i)) bad.fetch_add(1);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return bad.load();
}

size_t CheckStaticExact(
    std::vector<Outcome>* outcomes,
    const std::function<bool(const Outcome&)>& is_exact,
    const std::function<std::vector<float>(const Outcome&)>& query_of,
    const coconut::series::SeriesCollection& candidates, size_t threads) {
  return ParallelCount(outcomes->size(), threads, [&](size_t i) {
    Outcome& o = (*outcomes)[i];
    if (!o.ok || !is_exact(o)) return true;
    coconut::palm::api::QueryReport report;
    std::vector<float> query = query_of(o);
    coconut::series::ZNormalize(query);
    const bool right =
        ParseQueryReport(o.body, &report) && report.found &&
        IsExactNearest(
            query, [&](size_t c) { return candidates[c]; }, candidates.size(),
            report.series_id, report.distance);
    if (!right) o.ok = false;
    return right;
  });
}

}  // namespace perfbench
