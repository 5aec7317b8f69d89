#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include <sys/resource.h>

#include "common/json.h"

namespace perfbench {

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------- samples

namespace {
size_t NearestRankIndex(size_t n, double p) {
  // 1-based rank ceil(p * n), clamped into [1, n]. The epsilon keeps
  // p * n that is mathematically integral (0.99 * 1000) from rounding up.
  const double exact = p * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return rank - 1;
}
}  // namespace

double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRankIndex(sorted.size(), p)];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - NearestRankIndex(n, p);
}

void Samples::AddFailure() {
  values_.push_back(std::numeric_limits<double>::infinity());
  ++failed_;
}

double Samples::Percentile(double p) const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return NearestRank(sorted, p);
}

size_t Samples::Windows(size_t per_window, size_t max_windows) const {
  const size_t k = std::min(values_.size() / std::max<size_t>(per_window, 1),
                            max_windows);
  if (k <= 1) return 1;
  return k % 2 == 0 ? k - 1 : k;
}

double Samples::WindowedPercentile(double p, size_t per_window,
                                   size_t max_windows) const {
  const size_t k = Windows(per_window, max_windows);
  std::vector<double> per;
  for (size_t w = 0; w < k; ++w) {
    std::vector<double> window(values_.begin() + w * values_.size() / k,
                               values_.begin() + (w + 1) * values_.size() / k);
    std::sort(window.begin(), window.end());
    per.push_back(NearestRank(window, p));
  }
  return Median(per);
}

// ------------------------------------------------------------ schedule

std::vector<Arrival> OpenLoopSchedule(const std::vector<double>& rates,
                                      double seconds) {
  std::vector<Arrival> arrivals;
  for (size_t t = 0; t < rates.size(); ++t) {
    if (rates[t] <= 0.0) continue;
    const uint64_t count = static_cast<uint64_t>(rates[t] * seconds);
    for (uint64_t k = 0; k < count; ++k) {
      arrivals.push_back(Arrival{
          static_cast<int64_t>(static_cast<double>(k) * 1e9 / rates[t]),
          static_cast<int>(t), k});
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     if (a.due_ns != b.due_ns) return a.due_ns < b.due_ns;
                     return a.type < b.type;
                   });
  return arrivals;
}

// ---------------------------------------------------------------- zipf

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(coconut::Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

// --------------------------------------------------------------- spans

void Tracer::Record(uint64_t id, uint64_t parent, uint64_t request,
                    const std::string& layer, Clock::time_point start,
                    Clock::time_point end) {
  auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.layer = layer;
  span.start_ns = ns(start);
  span.end_ns = ns(end);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  std::map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    const auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) continue;
    const Span& p = *parent->second;
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[p.id].emplace_back(lo, hi);
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& s : spans) {
    std::vector<std::pair<int64_t, int64_t>>& covered = children[s.id];
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[s.id] = (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

// --------------------------------------------------------------- report

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

bool Report::Print(const std::vector<std::string>& emit, bool correct,
                   uint64_t attempted, uint64_t failed) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const auto& [name, value] : metrics_) {
    std::printf("%-34s = %.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  coconut::JsonWriter w;
  w.BeginObject();
  w.Field("correct", correct);
  w.Field("attempted", attempted);
  w.Field("failed", failed);
  w.Key("metrics");
  w.BeginObject();
  for (const std::string& name : emit) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end() || !std::isfinite(it->second.first)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return false;
    }
    w.Key(name);
    w.BeginObject();
    w.Field("value", it->second.first);
    w.Field("unit", it->second.second);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.TakeString().c_str());
  std::fflush(stdout);
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
