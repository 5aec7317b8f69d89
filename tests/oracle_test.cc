// The oracle correctness harness: every palm::Factory static variant's
// exact search must match testutil::BruteForceKnn (linear scan over the raw
// collection) — unconstrained and under time windows, with serial and
// parallel construction sorts. This suite is the regression net every
// performance PR runs under: any change to the construction pipeline,
// storage layer or query path that alters exact results fails here.
// The service case below sends the same queries from many threads at once:
// static indexes answer without any per-index lock, so every concurrent
// answer, I/O report and heat map must equal the query's solo one.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <tuple>

#include "palm/api.h"
#include "palm/factory.h"
#include "tests/test_util.h"

namespace coconut {
namespace palm {
namespace {

series::SaxConfig OracleSax() {
  return series::SaxConfig{.series_length = 64, .num_segments = 8,
                           .bits_per_segment = 8};
}

struct OracleCase {
  IndexFamily family;
  bool materialized;
  size_t construction_threads;
};

std::string CaseName(const ::testing::TestParamInfo<OracleCase>& info) {
  VariantSpec spec;
  spec.family = info.param.family;
  spec.materialized = info.param.materialized;
  std::string name = VariantName(spec);
  // Gtest parameter names must be alphanumeric.
  for (char& c : name) {
    if (c == '+' || c == '-') c = 'x';
  }
  return name + "_t" + std::to_string(info.param.construction_threads);
}

class OracleKnnTest : public ::testing::TestWithParam<OracleCase> {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("oracle_test");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
    raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  VariantSpec Spec() const {
    const OracleCase& c = GetParam();
    VariantSpec spec;
    spec.sax = OracleSax();
    spec.family = c.family;
    spec.materialized = c.materialized;
    spec.construction_threads = c.construction_threads;
    spec.buffer_entries = 128;
    // Small enough that the CTree construction sort spills runs, so the
    // external-sort path (serial or parallel) is actually exercised.
    spec.memory_budget_bytes = 64 << 10;
    return spec;
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
};

TEST_P(OracleKnnTest, ExactSearchMatchesBruteForceOracle) {
  auto collection = testutil::RandomWalkCollection(500, 64, 77);
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());

  auto index =
      CreateStaticIndex(Spec(), mgr_.get(), "idx", nullptr, raw_.get())
          .TakeValue();
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(
        index->Insert(i, collection[i], static_cast<int64_t>(i)).ok());
  }
  ASSERT_TRUE(index->Finalize().ok());
  ASSERT_EQ(index->num_entries(), collection.size());

  for (int q = 0; q < 8; ++q) {
    auto query = testutil::NoisyCopy(collection, q * 61 % 500, 0.5, q);
    auto oracle = testutil::BruteForceKnn(collection, query, 1);
    ASSERT_EQ(oracle.size(), 1u);
    auto got = index->ExactSearch(query, {}, nullptr).TakeValue();
    ASSERT_TRUE(got.found) << index->describe();
    EXPECT_NEAR(got.distance_sq, oracle[0].distance_sq, 1e-6)
        << index->describe() << " query " << q;
    // The returned id must actually be at the reported distance.
    EXPECT_NEAR(series::EuclideanSquared(query, collection[got.series_id]),
                got.distance_sq, 1e-6)
        << index->describe();
  }
}

TEST_P(OracleKnnTest, WindowedExactSearchMatchesWindowedOracle) {
  auto collection = testutil::RandomWalkCollection(400, 64, 78);
  ASSERT_TRUE(testutil::FillRawStore(raw_.get(), collection).ok());

  auto index =
      CreateStaticIndex(Spec(), mgr_.get(), "idx", nullptr, raw_.get())
          .TakeValue();
  for (size_t i = 0; i < collection.size(); ++i) {
    ASSERT_TRUE(
        index->Insert(i, collection[i], static_cast<int64_t>(i)).ok());
  }
  ASSERT_TRUE(index->Finalize().ok());

  const core::TimeWindow window{50, 250};
  core::SearchOptions options;
  options.window = window;
  for (int q = 0; q < 5; ++q) {
    auto query = testutil::NoisyCopy(collection, (q * 91 + 30) % 400, 0.5,
                                     100 + q);
    auto oracle = testutil::BruteForceKnn(collection, query, 1, window);
    ASSERT_EQ(oracle.size(), 1u);
    auto got = index->ExactSearch(query, options, nullptr).TakeValue();
    ASSERT_TRUE(got.found) << index->describe();
    EXPECT_GE(got.timestamp, window.begin);
    EXPECT_LE(got.timestamp, window.end);
    EXPECT_NEAR(got.distance_sq, oracle[0].distance_sq, 1e-6)
        << index->describe() << " query " << q;
  }
}

TEST_P(OracleKnnTest, OracleTopKIsSortedAndDeterministic) {
  auto collection = testutil::RandomWalkCollection(200, 64, 79);
  auto query = testutil::NoisyCopy(collection, 17, 0.4, 5);
  auto top = testutil::BruteForceKnn(collection, query, 10);
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i].distance_sq, top[i - 1].distance_sq);
  }
  // k past the collection size returns everything in the window.
  EXPECT_EQ(testutil::BruteForceKnn(collection, query, 500).size(), 200u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStaticVariants, OracleKnnTest,
    ::testing::Values(
        OracleCase{IndexFamily::kAds, false, 1},
        OracleCase{IndexFamily::kAds, true, 1},
        OracleCase{IndexFamily::kCTree, false, 1},
        OracleCase{IndexFamily::kCTree, true, 1},
        OracleCase{IndexFamily::kCTree, false, 3},
        OracleCase{IndexFamily::kCTree, true, 3},
        OracleCase{IndexFamily::kClsm, false, 1},
        OracleCase{IndexFamily::kClsm, true, 1}),
    CaseName);

// ------------------------------------------------- concurrent service reads

bool SameIo(const storage::IoStats& a, const storage::IoStats& b) {
  return a.sequential_reads == b.sequential_reads &&
         a.random_reads == b.random_reads &&
         a.sequential_writes == b.sequential_writes &&
         a.random_writes == b.random_writes && a.bytes_read == b.bytes_read &&
         a.bytes_written == b.bytes_written;
}

bool SameCounters(const core::QueryCounters& a, const core::QueryCounters& b) {
  return a.leaves_visited == b.leaves_visited &&
         a.leaves_pruned == b.leaves_pruned &&
         a.entries_examined == b.entries_examined &&
         a.raw_fetches == b.raw_fetches &&
         a.partitions_visited == b.partitions_visited &&
         a.partitions_skipped == b.partitions_skipped;
}

bool SameHeatMap(const api::QueryReport& a, const api::QueryReport& b) {
  return a.has_heatmap == b.has_heatmap &&
         a.heatmap.counts == b.heatmap.counts &&
         a.heatmap.total_events == b.heatmap.total_events &&
         a.heatmap.distinct_pages == b.heatmap.distinct_pages &&
         a.heatmap.distinct_files == b.heatmap.distinct_files &&
         a.access_locality == b.access_locality;
}

// Whether a concurrent report is the solo one: same answer, same I/O, same
// counters, same heat map (only the wall time may differ).
bool SameReport(const api::QueryReport& a, const api::QueryReport& b) {
  return a.found == b.found && a.series_id == b.series_id &&
         a.distance == b.distance && a.timestamp == b.timestamp &&
         SameIo(a.io, b.io) && SameCounters(a.counters, b.counters) &&
         SameHeatMap(a, b);
}

TEST(ConcurrentServiceOracle, StaticReadersMatchSoloAnswersAndBruteForce) {
  auto scratch = storage::MakeTempStorage("oracle_service").TakeValue();
  auto service =
      api::Service::Create(scratch->directory() + "/svc").TakeValue();
  const series::SeriesCollection collection =
      testutil::RandomWalkCollection(600, 64, 91);
  ASSERT_TRUE(service->RegisterDataset("walk", collection, nullptr).ok());
  // What the service stores: its own z-normalization of every series.
  series::SeriesCollection stored(64);
  for (size_t i = 0; i < collection.size(); ++i) {
    std::vector<float> v(collection[i].begin(), collection[i].end());
    series::ZNormalize(v);
    stored.Append(v);
  }

  struct Target {
    std::string name;
    IndexFamily family;
    bool materialized;
    size_t shards;
  };
  const std::vector<Target> targets = {
      {"ctree", IndexFamily::kCTree, false, 1},
      {"ctree_full", IndexFamily::kCTree, true, 1},
      {"ads", IndexFamily::kAds, false, 1},
      {"clsm", IndexFamily::kClsm, false, 1},
      {"ctree_2shards", IndexFamily::kCTree, false, 2},
  };
  std::vector<api::QueryRequest> requests;
  for (const Target& target : targets) {
    VariantSpec spec;
    spec.sax = OracleSax();
    spec.family = target.family;
    spec.materialized = target.materialized;
    spec.num_shards = target.shards;
    spec.buffer_entries = 128;
    auto built = service->BuildIndex(target.name, spec, "walk");
    ASSERT_TRUE(built.ok()) << target.name << ": " << built.status().ToString();
    for (int q = 0; q < 6; ++q) {
      api::QueryRequest request;
      request.index = target.name;
      request.query = testutil::NoisyCopy(collection, (q * 97 + 11) % 600,
                                          0.5, 900 + q);
      requests.push_back(request);  // Exact.
      request.exact = false;
      requests.push_back(request);  // Approximate.
      if (target.shards == 1) {
        request.exact = true;
        request.capture_heatmap = true;
        requests.push_back(request);  // Exact with a heat map.
      }
    }
  }
  // Shards number their files independently; the heat map is refused.
  api::QueryRequest sharded_map = requests.back();
  sharded_map.capture_heatmap = true;
  EXPECT_EQ(service->Query(sharded_map).status().code(),
            StatusCode::kNotSupported);

  // The first pass warms every buffer pool, so the solo pass below is the
  // steady state each concurrent query must reproduce exactly.
  for (const api::QueryRequest& request : requests) {
    ASSERT_TRUE(service->Query(request).ok());
  }
  std::vector<api::QueryReport> solo;
  for (const api::QueryRequest& request : requests) {
    auto report = service->Query(request);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    solo.push_back(report.TakeValue());
  }
  for (size_t r = 0; r < requests.size(); ++r) {
    const api::QueryRequest& request = requests[r];
    if (!request.exact) continue;
    std::vector<float> query = request.query;
    series::ZNormalize(query);
    const auto oracle = testutil::BruteForceKnn(stored, query, 1);
    ASSERT_TRUE(solo[r].found) << request.index;
    EXPECT_NEAR(solo[r].distance * solo[r].distance, oracle[0].distance_sq,
                1e-4)
        << request.index << " request " << r;
    EXPECT_NEAR(series::EuclideanSquared(query, stored[solo[r].series_id]),
                oracle[0].distance_sq, 1e-4)
        << request.index << " request " << r;
    EXPECT_EQ(solo[r].has_heatmap, request.capture_heatmap);
  }

  constexpr size_t kThreads = 6;
  constexpr size_t kRounds = 2;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<size_t> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the requests from its own offset, so every
      // index sees several different queries at once.
      for (size_t i = 0; i < kRounds * requests.size(); ++i) {
        const size_t r = (i + t * 7) % requests.size();
        auto report = service->Query(requests[r]);
        if (!report.ok()) {
          ++failures[t];
        } else if (!SameReport(report.value(), solo[r])) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0u) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
  service.reset();
  ASSERT_TRUE(scratch->Clear().ok());
}

}  // namespace
}  // namespace palm
}  // namespace coconut
