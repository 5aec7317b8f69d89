// Pieces every workload shares: run configuration, the HTTP front door
// (plain or traced), per-operation bookkeeping and the end-to-end metric
// helpers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.h"
#include "loadgen.h"
#include "palm/api.h"
#include "palm/http_server.h"
#include "series/series.h"

namespace perfbench {

inline constexpr int kSeriesLength = 256;

struct RunConfig {
  uint64_t seed = 1;
  /// Length of the measured phases (--seconds).
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory of this run (inside the checkout); removed at exit.
  std::string work_dir;
  /// Client threads and connections: the machine's core count.
  size_t nproc = 4;
};

/// Attempted and failed operations per operation type.
class Tally {
 public:
  void Add(const std::string& type, const std::vector<Outcome>& outcomes,
           int type_id);
  void Add(const std::string& type, uint64_t attempted, uint64_t failed);
  uint64_t attempted() const;
  uint64_t failed() const;
  /// One "ops <type>: attempted=.. failed=.. (x%)" note per type.
  void Describe(Report* report) const;

 private:
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> rows_;
};

/// The real palm::HttpServer in front of a dispatcher. Untraced runs hand
/// the Service to HttpServer::Start directly; traced runs interpose the
/// span-recording TracingDispatcher.
class FrontDoor {
 public:
  FrontDoor(coconut::palm::api::Service* service, Tracer* tracer,
            size_t threads);
  FrontDoor(coconut::palm::HttpDispatcher* dispatcher, Tracer* tracer,
            size_t threads);
  ~FrontDoor();
  uint16_t port() const { return server_->port(); }

 private:
  void Start(coconut::palm::HttpDispatcher* dispatcher, Tracer* tracer,
             size_t threads);
  std::unique_ptr<ServiceDispatcher> adapter_;
  std::unique_ptr<TracingDispatcher> tracing_;
  std::unique_ptr<coconut::palm::HttpServer> server_;
};

/// Wall time spent per part of a run ("setup 1.2s load 20.0s ..."),
/// noted so a slow run shows where its time went.
class PhaseTimer {
 public:
  void Mark(const char* phase);
  void Describe(Report* report) const { report->Note("timing:" + text_); }

 private:
  Clock::time_point last_ = Clock::now();
  std::string text_;
};

/// Fails the process (exit 1, no result line) on an unexpected setup error.
void Require(const coconut::Status& status, const char* what);
template <typename T>
T Require(coconut::Result<T> result, const char* what) {
  Require(result.status(), what);
  return result.TakeValue();
}

/// Runs `setup` `reps` times; returns the median wall time in seconds.
/// `teardown` runs between repetitions (untimed), not after the last.
double MedianSetupSeconds(int reps, const std::function<void(int)>& setup,
                          const std::function<void(int)>& teardown);

/// <prefix>_p50_ms (median over windows) and <prefix>_p99_ms (whole
/// phase) of one operation type, plus a note with the sample count and
/// whether the p99 has ten samples beyond it.
void LatencyMetrics(const std::string& prefix, const Samples& samples,
                    Report* report);

/// gen.lag_p99_ms, with a note flagging a generator behind schedule.
void LagMetric(const std::vector<Outcome>& open_loop, Report* report);

/// Reads the `ingested` count of an ingest_batch reply (0 if malformed).
uint64_t IngestedCount(const std::string& body);

/// A noisy copy (Gaussian sigma, re-normalized) of `base`: a query that
/// is near a stored series without being one of them.
std::vector<float> NoisyQuery(std::span<const float> base, double sigma,
                              uint64_t seed);

/// Runs `check(i)` for i in [0, n) on `threads` threads; returns how many
/// returned false.
size_t ParallelCount(size_t n, size_t threads,
                     const std::function<bool(size_t)>& check);

/// Checks every successful exact query reply in `outcomes` against the
/// collection: `query_of(outcome)` rebuilds the (z-normalized) query the
/// request carried, and `candidates` spans the series it could match,
/// series_id = position. A wrong answer clears Outcome::ok. Returns the
/// number of mismatches.
size_t CheckStaticExact(
    std::vector<Outcome>* outcomes,
    const std::function<bool(const Outcome&)>& is_exact,
    const std::function<std::vector<float>(const Outcome&)>& query_of,
    const coconut::series::SeriesCollection& candidates, size_t threads);

/// Run metadata: kernel ISA, nproc, build type.
void DescribeRun(const RunConfig& config, const std::string& workload,
                 Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
