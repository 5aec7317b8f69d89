// Measurement primitives of the Palm benchmark: latency samples with
// nearest-rank percentiles, the open-loop arrival schedule, a seeded Zipf
// sampler, span recording with self-time subtraction, and the metric
// report. Nothing here touches the program under test, so the harness
// self-tests (perfbench/tests) cover it in isolation.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Deterministic 64-bit mixer (splitmix64 finalizer): derives independent
/// sub-seeds from the run seed, so every input is a function of --seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

// ------------------------------------------------------------- samples

/// Nearest-rank percentile of ascending `sorted`: the value at 1-based
/// rank ceil(p * n). Empty input gives 0.
double NearestRank(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank p-th percentile: n - ceil(p*n).
size_t SamplesBeyond(size_t n, double p);

/// A percentile is reported only with at least this many samples beyond it.
inline constexpr size_t kMinBeyond = 10;

/// Latency samples of ONE operation type. A failed or refused operation
/// is recorded as +infinity: it misses every latency limit and still
/// counts as attempted.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void AddFailure();

  size_t attempted() const { return values_.size(); }
  size_t failed() const { return failed_; }
  /// Nearest-rank percentile over every attempt (failures included).
  double Percentile(double p) const;
  /// True when Percentile(p) has kMinBeyond samples beyond it.
  bool Resolved(double p) const {
    return SamplesBeyond(values_.size(), p) >= kMinBeyond;
  }
  /// Samples are kept in arrival order. Splits them into the largest odd
  /// number of consecutive windows, at most `max_windows`, that each hold
  /// `per_window` samples or more, and returns the median of the windows'
  /// Percentile(p): a figure one period of stalls cannot swing. With fewer
  /// than 3 * per_window samples it is Percentile(p) itself.
  double WindowedPercentile(double p, size_t per_window,
                            size_t max_windows) const;
  /// The number of windows WindowedPercentile uses.
  size_t Windows(size_t per_window, size_t max_windows) const;

 private:
  std::vector<double> values_;
  size_t failed_ = 0;
};

// ------------------------------------------------------------ schedule

/// One open-loop arrival: operation `type`, its ordinal within that type,
/// and when it is due (offset from the phase start).
struct Arrival {
  int64_t due_ns;
  int type;
  uint64_t ordinal;
};

/// Merges per-type constant-rate streams into one due-ordered schedule:
/// arrival k of type t is due at k / rates[t] seconds, independent of how
/// fast anything is answered. Ties keep type order.
std::vector<Arrival> OpenLoopSchedule(const std::vector<double>& rates,
                                      double seconds);

// ---------------------------------------------------------------- zipf

/// Zipf(s) over ranks [0, n): P(k) proportional to 1/(k+1)^s, drawn by
/// inverting a precomputed CDF with one uniform from the caller's Rng, so
/// a sequence of draws is a pure function of the Rng seed.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(coconut::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

// --------------------------------------------------------------- spans

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` is the id of the span that caused this one (0 = root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe in-memory span store; spans are kept until the run ends.
/// Ids are handed out before the call so a child recorded on another
/// thread (the server side of an HTTP request) can name its parent.
class Tracer {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(uint64_t id, uint64_t parent, uint64_t request,
              const std::string& layer, Clock::time_point start,
              Clock::time_point end);
  std::vector<Span> Snapshot() const;

 private:
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span, in ns: its duration minus the part of its
/// interval that its children cover (overlapping children are counted
/// once; child time outside the parent's interval is ignored).
std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans);

// --------------------------------------------------------------- report

/// Everything a run measured. Every metric is printed as a readable
/// `name = value unit` line; the ones named in `emit` (the metric list
/// BENCHMARK.json declares for this mode) also go into the final JSON.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// A human-readable line before the JSON (run metadata, caveats).
  void Note(const std::string& line);
  /// Prints the notes and metric lines, then `{"correct":..,"attempted":..,
  /// "failed":..,"metrics":{..}}` as the last stdout line. Returns false,
  /// printing no JSON, when a name in `emit` was never measured.
  bool Print(const std::vector<std::string>& emit, bool correct,
             uint64_t attempted, uint64_t failed) const;
  double Get(const std::string& name) const {
    return metrics_.at(name).first;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> notes_;
};

/// Median of an unsorted vector (0 when empty).
double Median(std::vector<double> values);

/// Peak resident set size of this process, MiB.
double PeakRssMib();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
