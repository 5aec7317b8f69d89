// Self-tests of the benchmark harness: percentiles and the ten-beyond
// rule, the open-loop schedule, Zipf determinism, span self-time, and the
// exact-answer oracle against testutil::BruteForceKnn. Built by
// perfbench/CMakeLists.txt as perfbench_selftest; run with
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "harness.h"
#include "oracle.h"
#include "tests/test_util.h"

namespace perfbench {
namespace {

TEST(NearestRank, PicksCeilRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(NearestRank(v, 0.50), 50);
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank(v, 1.0), 100);
  EXPECT_EQ(NearestRank(v, 0.001), 1);
  EXPECT_EQ(NearestRank({7.0}, 0.99), 7.0);
  EXPECT_EQ(NearestRank({}, 0.5), 0.0);
}

TEST(NearestRank, TenBeyondRule) {
  // p99 of 1000 samples is rank 990: exactly ten samples lie beyond it.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.50), 50u);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
  Samples s;
  for (int i = 0; i < 999; ++i) s.Add(i);
  EXPECT_FALSE(s.Resolved(0.99));
  s.Add(999);
  EXPECT_TRUE(s.Resolved(0.99));
}

TEST(Samples, FailuresMissEveryLimit) {
  Samples s;
  for (int i = 0; i < 98; ++i) s.Add(1.0);
  s.AddFailure();
  s.AddFailure();
  EXPECT_EQ(s.attempted(), 100u);
  EXPECT_EQ(s.failed(), 2u);
  EXPECT_EQ(s.Percentile(0.50), 1.0);
  EXPECT_EQ(s.Percentile(0.98), 1.0);
  EXPECT_TRUE(std::isinf(s.Percentile(0.99)));
}

TEST(Samples, WindowedPercentileIsMedianOfOddWindows) {
  Samples few;
  EXPECT_EQ(few.Windows(1000, 5), 1u);
  for (int i = 0; i < 999; ++i) few.Add(i % 100);
  EXPECT_EQ(few.Windows(1000, 5), 1u);
  EXPECT_EQ(few.WindowedPercentile(0.50, 1000, 5), few.Percentile(0.50));
  for (int i = 999; i < 2999; ++i) few.Add(i % 100);
  EXPECT_EQ(few.Windows(1000, 5), 1u);
  EXPECT_EQ(few.WindowedPercentile(0.99, 1000, 5), few.Percentile(0.99));
  // Five windows of 1000; one holds a burst of stalls that moves the
  // whole-run p99 but not the median window's.
  Samples s;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 1000; ++i) s.Add(w == 2 && i < 50 ? 500.0 : i % 100);
  }
  EXPECT_EQ(s.Windows(1000, 5), 5u);
  EXPECT_EQ(s.Windows(1000, 4), 3u);
  EXPECT_EQ(s.WindowedPercentile(0.99, 1000, 5), 98.0);
  EXPECT_EQ(s.Percentile(0.99), 99.0);
  Samples burst = s;
  for (int i = 0; i < 60; ++i) burst.Add(500.0);
  EXPECT_EQ(burst.Percentile(0.99), 500.0);
}

TEST(OpenLoopSchedule, ConstantRatesMergedByDueTime) {
  const std::vector<Arrival> a = OpenLoopSchedule({100.0, 40.0}, 1.0);
  ASSERT_EQ(a.size(), 140u);
  size_t per_type[2] = {0, 0};
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0) EXPECT_LE(a[i - 1].due_ns, a[i].due_ns);
    const Arrival& x = a[i];
    EXPECT_EQ(x.ordinal, per_type[x.type]++);
    const double rate = x.type == 0 ? 100.0 : 40.0;
    EXPECT_EQ(x.due_ns, static_cast<int64_t>(x.ordinal * 1e9 / rate));
  }
  EXPECT_EQ(per_type[0], 100u);
  EXPECT_EQ(per_type[1], 40u);
  EXPECT_TRUE(OpenLoopSchedule({0.0}, 5.0).empty());
}

TEST(ZipfSampler, DeterministicPerSeedAndSkewed) {
  const ZipfSampler zipf(1000, 1.0);
  for (uint64_t seed : {1ull, 2ull, 99ull}) {
    coconut::Rng a(seed), b(seed);
    for (int i = 0; i < 500; ++i) EXPECT_EQ(zipf.Sample(&a), zipf.Sample(&b));
  }
  coconut::Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 50; ++i) differ |= zipf.Sample(&a) != zipf.Sample(&b);
  EXPECT_TRUE(differ);
  coconut::Rng rng(7);
  size_t head = 0;
  for (int i = 0; i < 10000; ++i) {
    const size_t k = zipf.Sample(&rng);
    ASSERT_LT(k, 1000u);
    head += k < 10 ? 1 : 0;
  }
  // The top 1% of ranks holds ~39% of Zipf(1) mass over 1000 ranks.
  EXPECT_GT(head, 3000u);
  EXPECT_LT(head, 4800u);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end,
              const char* layer = "x") {
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimes, SubtractsNestedChildren) {
  // root [0,100) > a [10,40) > a1 [15,25); root > b [50,70).
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100, "http"), MakeSpan(2, 1, 10, 40, "dispatch"),
      MakeSpan(3, 2, 15, 25, "index"), MakeSpan(4, 1, 50, 70, "dispatch")};
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self.at(1), 100 - 30 - 20);
  EXPECT_EQ(self.at(2), 30 - 10);
  EXPECT_EQ(self.at(3), 10);
  EXPECT_EQ(self.at(4), 20);
}

TEST(SelfTimes, OverlappingAndOverhangingChildrenCountOnce) {
  // Children [10,50) and [30,60) overlap; [90,130) overhangs the parent.
  const std::vector<Span> spans = {MakeSpan(1, 0, 0, 100),
                                   MakeSpan(2, 1, 10, 50),
                                   MakeSpan(3, 1, 30, 60),
                                   MakeSpan(4, 1, 90, 130)};
  EXPECT_EQ(SelfTimes(spans).at(1), 100 - 50 - 10);
}

TEST(Oracle, AgreesWithBruteForceKnn) {
  const auto data = coconut::testutil::RandomWalkCollection(500, 64, 3);
  for (uint64_t q = 0; q < 20; ++q) {
    const std::vector<float> query =
        coconut::testutil::NoisyCopy(data, q * 17 % 500, 0.3, 100 + q);
    const auto truth = coconut::testutil::BruteForceKnn(data, query, 2);
    auto candidate = [&](size_t i) { return data[i]; };
    const size_t n = data.size();
    const double d0 = std::sqrt(truth[0].distance_sq);
    const double d1 = std::sqrt(truth[1].distance_sq);
    EXPECT_TRUE(IsExactNearest(query, candidate, n, truth[0].index, d0));
    // The second-nearest (or a wrong distance) is refused.
    EXPECT_FALSE(IsExactNearest(query, candidate, n, truth[1].index, d1));
    EXPECT_FALSE(
        IsExactNearest(query, candidate, n, truth[0].index, d0 * 1.01));
    EXPECT_FALSE(IsExactNearest(query, candidate, n, n, d0));
  }
}

TEST(Oracle, AnswerBytesIgnoreTimingAndIo) {
  coconut::palm::api::QueryReport a;
  a.index = "i";
  a.found = true;
  a.series_id = 4;
  a.distance = 1.5;
  coconut::palm::api::QueryReport b = a;
  b.seconds = 0.25;
  b.io.random_reads = 3;
  EXPECT_EQ(AnswerBytes(a), AnswerBytes(b));
  b.series_id = 5;
  EXPECT_NE(AnswerBytes(a), AnswerBytes(b));
}

TEST(Mix, DistinctSaltsAndSeeds) {
  std::set<uint64_t> seen;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    for (uint64_t salt = 0; salt < 100; ++salt) seen.insert(Mix(seed, salt));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

}  // namespace
}  // namespace perfbench
