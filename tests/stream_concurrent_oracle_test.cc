// The concurrent stream oracle: threads ingest into an async streaming
// index while other threads query it. Mid-flight answers must be
// well-formed (a real series, inside the window, at its true distance,
// and no worse than the full-stream optimum); at quiesce checkpoints —
// after FlushAll(), the drain barrier — exact results over the
// acknowledged prefix must equal testutil::BruteForceKnn. A second suite
// pins the tentpole equivalence: a drained async index answers
// byte-identically to a synchronously built one, for TP, BTP and CLSM.
// A third case pins per-query I/O attribution through the service: a
// query's report must describe that query alone, never the concurrent
// queries or the background seals sharing its index.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "palm/api.h"
#include "palm/factory.h"
#include "series/distance.h"
#include "stream/btp.h"
#include "stream/tp.h"
#include "tests/test_util.h"

namespace coconut {
namespace stream {
namespace {

using core::SearchOptions;
using core::TimeWindow;

series::SaxConfig TestSax() {
  return series::SaxConfig{.series_length = 64, .num_segments = 8,
                           .bits_per_segment = 8};
}

palm::VariantSpec BaseSpec(palm::IndexFamily family, palm::StreamMode mode,
                           bool materialized) {
  palm::VariantSpec spec;
  spec.sax = TestSax();
  spec.family = family;
  spec.mode = mode;
  spec.materialized = materialized;
  spec.buffer_entries = 60;  // Many seals (and BTP merges) over 600 series.
  spec.btp_merge_k = 2;
  return spec;
}

/// The streaming cells that support background ingestion.
std::vector<palm::VariantSpec> AsyncSpecs() {
  return {
      BaseSpec(palm::IndexFamily::kCTree, palm::StreamMode::kTP, false),
      BaseSpec(palm::IndexFamily::kCTree, palm::StreamMode::kTP, true),
      BaseSpec(palm::IndexFamily::kClsm, palm::StreamMode::kBTP, false),
      BaseSpec(palm::IndexFamily::kClsm, palm::StreamMode::kBTP, true),
      BaseSpec(palm::IndexFamily::kClsm, palm::StreamMode::kPP, false),
  };
}

class StreamConcurrentOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = storage::MakeTempStorage("stream_concurrent_oracle");
    ASSERT_TRUE(r.ok());
    mgr_ = r.TakeValue();
    collection_ = testutil::RandomWalkCollection(600, 64, 77);
    raw_ = core::RawSeriesStore::Create(mgr_.get(), "raw", 64).TakeValue();
  }
  void TearDown() override { ASSERT_TRUE(mgr_->Clear().ok()); }

  std::unique_ptr<StreamingIndex> MakeStream(const palm::VariantSpec& spec,
                                             const std::string& name) {
    auto r = palm::CreateStreamingIndex(spec, mgr_.get(), name, nullptr,
                                        raw_.get());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.TakeValue();
  }

  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<core::RawSeriesStore> raw_;
  series::SeriesCollection collection_{64};
};

TEST_F(StreamConcurrentOracleTest, IngestAndQueryRaceThenQuiesceExactness) {
  ThreadPool background(3);
  int variant_ordinal = 0;
  for (palm::VariantSpec spec : AsyncSpecs()) {
    spec.async_ingest = true;
    spec.background_pool = &background;
    const std::string what = palm::VariantName(spec);
    SCOPED_TRACE(what);
    // Inner scope: the stream must die before the per-variant storage
    // reset below.
    {
    auto stream =
        MakeStream(spec, "cc" + std::to_string(variant_ordinal++));
    ASSERT_NE(stream, nullptr);

    // Timestamps are the ordinals, so "acknowledged prefix" and "time
    // window ending at the last acknowledged arrival" coincide.
    std::atomic<size_t> acknowledged{0};
    std::atomic<bool> stop{false};

    auto querier = [&](uint64_t seed) {
      Rng rng(seed);
      while (!stop.load(std::memory_order_acquire)) {
        const size_t ack_before =
            acknowledged.load(std::memory_order_acquire);
        const size_t base = rng.NextBounded(collection_.size());
        auto query = testutil::NoisyCopy(collection_, base, 0.4, seed + base);
        SearchOptions options;
        const bool windowed = rng.NextBounded(2) == 0;
        if (windowed && ack_before > 0) {
          const int64_t lo =
              static_cast<int64_t>(rng.NextBounded(ack_before));
          options.window = TimeWindow{lo, lo + 120};
        }
        auto result = stream->ExactSearch(query, options, nullptr);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const core::SearchResult match = result.value();
        if (!windowed && ack_before > 0) {
          // The snapshot a query evaluates contains at least everything
          // acknowledged before it started.
          EXPECT_TRUE(match.found);
        }
        if (!match.found) continue;
        // Whatever the race interleaving, an answer must be a real series
        // at its true distance, inside the window.
        ASSERT_LT(match.series_id, collection_.size());
        EXPECT_TRUE(options.window.Contains(match.timestamp));
        EXPECT_EQ(match.timestamp, static_cast<int64_t>(match.series_id));
        const double true_d =
            series::EuclideanSquared(query, collection_[match.series_id]);
        EXPECT_NEAR(match.distance_sq, true_d, 1e-3);
        if (!windowed && ack_before > 0) {
          // Unwindowed queries must see at least everything acknowledged
          // before they started — i.e. find *something*, and nothing
          // closer than the optimum over the whole stream.
          auto floor = testutil::BruteForceKnn(collection_, query, 1);
          EXPECT_GE(match.distance_sq, floor[0].distance_sq - 1e-3);
        }
      }
    };
    std::thread q1(querier, 1000 + variant_ordinal);
    std::thread q2(querier, 2000 + variant_ordinal);

    const std::vector<size_t> checkpoints = {150, 375, 600};
    size_t next = 0;
    for (size_t checkpoint : checkpoints) {
      for (size_t i = next; i < checkpoint; ++i) {
        ASSERT_TRUE(raw_->Append(collection_[i]).ok());
        ASSERT_TRUE(stream
                        ->Ingest(i, collection_[i],
                                 static_cast<int64_t>(i))
                        .ok());
        acknowledged.store(i + 1, std::memory_order_release);
      }
      next = checkpoint;
      // Quiesce: drain every deferred seal/flush/merge, then demand
      // brute-force exactness over the acknowledged prefix while the
      // query threads keep hammering away.
      ASSERT_TRUE(stream->FlushAll().ok());
      EXPECT_EQ(stream->num_entries(), checkpoint);
      const std::vector<TimeWindow> windows = {
          TimeWindow::All(),
          TimeWindow{0, static_cast<int64_t>(checkpoint / 2)},
          TimeWindow{static_cast<int64_t>(checkpoint / 3),
                     static_cast<int64_t>(checkpoint + 50)}};
      for (size_t w = 0; w < windows.size(); ++w) {
        for (int q = 0; q < 3; ++q) {
          auto query = testutil::NoisyCopy(
              collection_, (q * 97 + 13) % checkpoint, 0.5, w * 10 + q);
          // Restrict the oracle to the acknowledged prefix via the
          // timestamp==ordinal identity.
          TimeWindow prefix = windows[w];
          prefix.end =
              std::min(prefix.end, static_cast<int64_t>(checkpoint - 1));
          auto oracle = testutil::BruteForceKnn(collection_, query, 1,
                                                prefix);
          SearchOptions options;
          options.window = windows[w];
          auto got = stream->ExactSearch(query, options, nullptr);
          ASSERT_TRUE(got.ok());
          ASSERT_EQ(got.value().found, !oracle.empty())
              << what << " checkpoint " << checkpoint << " window " << w;
          if (!oracle.empty()) {
            EXPECT_NEAR(got.value().distance_sq, oracle[0].distance_sq,
                        1e-6)
                << what << " checkpoint " << checkpoint << " window " << w
                << " query " << q;
          }
        }
      }
    }
    stop.store(true, std::memory_order_release);
    q1.join();
    q2.join();
    }
    // Fresh raw store per variant (ids restart at 0 for each stream).
    TearDown();
    SetUp();
  }
}

// The tentpole guarantee: after the drain barrier, an async index answers
// byte-identically (same series, same bits of distance) to one built
// synchronously over the same input — for every async-capable variant.
TEST_F(StreamConcurrentOracleTest, DrainedAsyncEquivalentToSyncBuild) {
  ThreadPool background(4);
  int ordinal = 0;
  for (palm::VariantSpec spec : AsyncSpecs()) {
    const std::string what = palm::VariantName(spec);
    SCOPED_TRACE(what);
    palm::VariantSpec async_spec = spec;
    async_spec.async_ingest = true;
    async_spec.background_pool = &background;
    // Inner scope: the indexes must die before the per-variant storage
    // reset below.
    {
    auto sync_index =
        MakeStream(spec, "sync" + std::to_string(ordinal));
    auto async_index =
        MakeStream(async_spec, "async" + std::to_string(ordinal));
    ++ordinal;
    ASSERT_NE(sync_index, nullptr);
    ASSERT_NE(async_index, nullptr);

    for (size_t i = 0; i < collection_.size(); ++i) {
      ASSERT_TRUE(raw_->Append(collection_[i]).ok());
      const int64_t ts = static_cast<int64_t>(i);
      ASSERT_TRUE(sync_index->Ingest(i, collection_[i], ts).ok());
      ASSERT_TRUE(async_index->Ingest(i, collection_[i], ts).ok());
    }
    ASSERT_TRUE(sync_index->FlushAll().ok());
    ASSERT_TRUE(async_index->FlushAll().ok());

    EXPECT_EQ(async_index->num_entries(), sync_index->num_entries());
    EXPECT_EQ(async_index->num_partitions(), sync_index->num_partitions());

    // TP/BTP: the sealed partition sets must be structurally identical.
    auto* sync_tp = dynamic_cast<TemporalPartitioningIndex*>(
        sync_index.get());
    auto* async_tp = dynamic_cast<TemporalPartitioningIndex*>(
        async_index.get());
    if (sync_tp != nullptr && async_tp != nullptr) {
      const auto sync_parts = sync_tp->SnapshotPartitions();
      const auto async_parts = async_tp->SnapshotPartitions();
      ASSERT_EQ(sync_parts.size(), async_parts.size());
      for (size_t i = 0; i < sync_parts.size(); ++i) {
        // Names embed the distinct sync/async prefixes; the ".p<i>"/".m<i>"
        // suffix is the structural part.
        EXPECT_EQ(async_parts[i].name.substr(
                      async_parts[i].name.find_last_of('.')),
                  sync_parts[i].name.substr(
                      sync_parts[i].name.find_last_of('.')));
        EXPECT_EQ(async_parts[i].entries, sync_parts[i].entries);
        EXPECT_EQ(async_parts[i].size_class, sync_parts[i].size_class);
        EXPECT_EQ(async_parts[i].t_min, sync_parts[i].t_min);
        EXPECT_EQ(async_parts[i].t_max, sync_parts[i].t_max);
      }
    }

    const std::vector<TimeWindow> windows = {
        TimeWindow::All(), TimeWindow{100, 400}, TimeWindow{0, 60},
        TimeWindow{555, 999}};
    for (size_t w = 0; w < windows.size(); ++w) {
      SearchOptions options;
      options.window = windows[w];
      for (int q = 0; q < 4; ++q) {
        auto query = testutil::NoisyCopy(collection_, (q * 151 + 31) % 600,
                                         0.5, w * 100 + q);
        auto from_sync =
            sync_index->ExactSearch(query, options, nullptr).TakeValue();
        auto from_async =
            async_index->ExactSearch(query, options, nullptr).TakeValue();
        EXPECT_EQ(from_async.found, from_sync.found)
            << what << " window " << w;
        if (from_sync.found) {
          EXPECT_EQ(from_async.series_id, from_sync.series_id)
              << what << " window " << w << " query " << q;
          EXPECT_EQ(from_async.distance_sq, from_sync.distance_sq)
              << what << " window " << w << " query " << q;
          EXPECT_EQ(from_async.timestamp, from_sync.timestamp)
              << what << " window " << w << " query " << q;
        }
      }
    }
    }
    TearDown();
    SetUp();
  }
}

// Readers query an async stream while a writer keeps ingesting into it,
// so background seals do I/O on the stream's storage beside the readers.
// The readers' window holds only the drained history, so every answer,
// I/O report and counter must equal that query's solo report on the
// quiesced stream — except partitions_skipped, which counts the new
// partitions sealing outside the window.
TEST(StreamQueryIoAttribution, ConcurrentReportsEqualSoloReports) {
  auto scratch = storage::MakeTempStorage("stream_io_scope").TakeValue();
  auto service =
      palm::api::Service::Create(scratch->directory() + "/svc").TakeValue();
  palm::api::CreateStreamRequest create;
  create.stream = "live";
  create.spec =
      BaseSpec(palm::IndexFamily::kCTree, palm::StreamMode::kTP, false);
  create.spec.async_ingest = true;
  ASSERT_TRUE(service->CreateStream(create).ok());

  constexpr size_t kHistory = 600;
  const series::SeriesCollection history =
      testutil::RandomWalkCollection(kHistory, 64, 31);
  palm::api::IngestBatchRequest ingest;
  ingest.stream = "live";
  ingest.batch = history;
  for (size_t i = 0; i < kHistory; ++i) {
    ingest.timestamps.push_back(static_cast<int64_t>(i));
  }
  ASSERT_TRUE(service->IngestBatch(ingest).ok());
  ASSERT_TRUE(service->DrainStream("live").ok());

  std::vector<palm::api::QueryRequest> requests;
  for (int q = 0; q < 8; ++q) {
    palm::api::QueryRequest request;
    request.index = "live";
    request.query =
        testutil::NoisyCopy(history, (q * 73 + 5) % kHistory, 0.4, 300 + q);
    request.window = TimeWindow{0, static_cast<int64_t>(kHistory) - 1};
    request.exact = q % 2 == 0;
    requests.push_back(request);
  }
  // Warm the buffer pool, then take the solo reports.
  for (const auto& request : requests) {
    ASSERT_TRUE(service->Query(request).ok());
  }
  std::vector<palm::api::QueryReport> solo;
  for (const auto& request : requests) {
    auto report = service->Query(request);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report.value().found);
    ASSERT_GT(report.value().io.total_reads(), 0u);
    solo.push_back(report.TakeValue());
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> churn_batches{0};
  std::thread writer([&] {
    const series::SeriesCollection fresh =
        testutil::RandomWalkCollection(240, 64, 32);
    int64_t next_ts = static_cast<int64_t>(kHistory);
    while (!stop.load(std::memory_order_acquire)) {
      palm::api::IngestBatchRequest batch;
      batch.stream = "live";
      batch.batch = fresh;
      for (size_t i = 0; i < fresh.size(); ++i) {
        batch.timestamps.push_back(next_ts++);
      }
      ASSERT_TRUE(service->IngestBatch(batch).ok());
      churn_batches.fetch_add(1, std::memory_order_acq_rel);
    }
  });

  constexpr size_t kReaders = 4;
  constexpr size_t kRounds = 6;
  std::vector<size_t> mismatches(kReaders, 0);
  std::vector<size_t> failures(kReaders, 0);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = 0; i < kRounds * requests.size(); ++i) {
        const size_t r = (i + t * 3) % requests.size();
        auto got = service->Query(requests[r]);
        if (!got.ok()) {
          ++failures[t];
          continue;
        }
        const palm::api::QueryReport& a = got.value();
        const palm::api::QueryReport& b = solo[r];
        const storage::IoStats& x = a.io;
        const storage::IoStats& y = b.io;
        const bool same =
            a.found == b.found && a.series_id == b.series_id &&
            a.distance == b.distance &&
            x.sequential_reads == y.sequential_reads &&
            x.random_reads == y.random_reads &&
            x.bytes_read == y.bytes_read && x.total_writes() == 0 &&
            x.bytes_written == 0 &&
            a.counters.leaves_visited == b.counters.leaves_visited &&
            a.counters.leaves_pruned == b.counters.leaves_pruned &&
            a.counters.entries_examined == b.counters.entries_examined &&
            a.counters.raw_fetches == b.counters.raw_fetches &&
            a.counters.partitions_visited == b.counters.partitions_visited &&
            a.counters.partitions_skipped >= b.counters.partitions_skipped;
        if (!same) ++mismatches[t];
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  // Keep the writer going until it has sealed in the background at least
  // a few times, so seal I/O is guaranteed to have overlapped the stream.
  while (churn_batches.load(std::memory_order_acquire) < 3) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  for (size_t t = 0; t < kReaders; ++t) {
    EXPECT_EQ(failures[t], 0u) << "reader " << t;
    EXPECT_EQ(mismatches[t], 0u) << "reader " << t;
  }
  ASSERT_TRUE(service->DrainStream("live").ok());
  service.reset();
  ASSERT_TRUE(scratch->Clear().ok());
}

}  // namespace
}  // namespace stream
}  // namespace coconut
