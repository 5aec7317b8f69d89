// stream-ingest: Palm Scenario 2, a monitor over a live seismic feed. A
// durable async CLSM-BTP stream (the recommender's pick for streaming
// data with windowed queries) receives 64-series JSON batches in an open
// loop while windowed exact queries (noisy copies of recently ingested
// series, over a recent window) run beside them. Then nproc writers
// saturate ingest, nproc callers saturate windowed queries, and the
// stream is drained. The write path (codec, SAX, seals and merges, the WAL
// fdatasync) does most of the work; queries take the lock-free path.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "common/json.h"
#include "palm/http_client.h"
#include "probes.h"
#include "series/distance.h"
#include "series/series.h"
#include "workload/seismic.h"
#include "workloads.h"

namespace perfbench {

namespace api = coconut::palm::api;

namespace {

constexpr size_t kBatch = 64;
/// Batches ingested while setting up, so windows have history from the
/// first query on.
constexpr uint64_t kPreload = 128;
/// Window of a query, in batches, and how far behind the newest due batch
/// it ends.
constexpr uint64_t kWindowBatches = 32;
constexpr double kWindowLagSeconds = 1.5;
constexpr double kNoise = 0.1;
/// Open-loop rates (recorded in BENCHMARK.json): batches/s and queries/s.
constexpr double kIngestRate = 100.0;
constexpr double kQueryRate = 400.0;
constexpr int kSetupReps = 5;
constexpr uint64_t kClosedQueryOrdinals = 1ull << 20;
constexpr size_t kFullChecks = 8;

enum OpType { kQuery = 0, kIngest = 1, kNumTypes = 2 };

/// Trace j of batch b of the feed, generated from the run seed alone (each
/// trace on its own, so a query can copy one without building its batch).
coconut::series::SeriesCollection FeedSeries(uint64_t seed, uint64_t b,
                                             size_t j) {
  coconut::workload::SeismicGenerator::Options options;
  options.series_length = kSeriesLength;
  options.batch_size = 1;
  options.seed = Mix(seed, (1ull << 32) + b * kBatch + j);
  return coconut::workload::SeismicGenerator(options).NextBatch().series;
}

/// Batch b of the feed: 64 seismic traces with timestamps b*64 .. b*64+63.
coconut::workload::SeismicBatch FeedBatch(uint64_t seed, uint64_t b) {
  coconut::workload::SeismicBatch batch(kSeriesLength);
  for (size_t j = 0; j < kBatch; ++j) {
    batch.series.Append(FeedSeries(seed, b, j)[0]);
    batch.timestamps.push_back(static_cast<int64_t>(b * kBatch + j));
  }
  return batch;
}

/// Batch b as the stream stores it (the service z-normalizes on ingest).
coconut::series::SeriesCollection StoredBatch(uint64_t seed, uint64_t b) {
  coconut::series::SeriesCollection series = FeedBatch(seed, b).series;
  for (size_t j = 0; j < series.size(); ++j) {
    coconut::series::ZNormalize(series.Mutable(j));
  }
  return series;
}

/// Tracks which batches were acknowledged and the longest fully
/// acknowledged prefix (a window inside it has every series present).
class Acks {
 public:
  void Ack(uint64_t b) {
    std::lock_guard<std::mutex> lock(mu_);
    if (b >= acked_.size()) acked_.resize(b + 1024, 0);
    acked_[b] = 1;
    while (prefix_ < acked_.size() && acked_[prefix_] != 0) ++prefix_;
  }
  uint64_t Prefix() const {
    std::lock_guard<std::mutex> lock(mu_);
    return prefix_;
  }
  bool Acked(uint64_t b) const {
    std::lock_guard<std::mutex> lock(mu_);
    return b < acked_.size() && acked_[b] != 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<uint8_t> acked_;
  uint64_t prefix_ = 0;
};

}  // namespace

void RunStreamIngest(const RunConfig& config, RunResult* result) {
  Report& report = result->report;
  const uint64_t seed = config.seed;
  auto service = Require(api::Service::Create(config.work_dir + "/service"),
                         "service");
  coconut::palm::VariantSpec stream_spec;
  stream_spec.family = coconut::palm::IndexFamily::kClsm;
  stream_spec.mode = coconut::palm::StreamMode::kBTP;
  stream_spec.async_ingest = true;
  stream_spec.durable = true;

  // ---- fixture: create the stream and backfill its history (the first
  // kPreload batches) in one call.
  coconut::workload::SeismicBatch history(kSeriesLength);
  for (uint64_t b = 0; b < kPreload; ++b) {
    const auto batch = FeedBatch(seed, b);
    for (size_t j = 0; j < kBatch; ++j) {
      history.series.Append(batch.series[j]);
      history.timestamps.push_back(batch.timestamps[j]);
    }
  }
  const double setup_s = MedianSetupSeconds(
      kSetupReps,
      [&](int) {
        Require(service->CreateStream("live", stream_spec), "create stream");
        Require(
            service->IngestBatch("live", history.series, history.timestamps),
            "history");
      },
      [&](int) { Require(service->DropIndex("live"), "drop stream"); });
  Acks acks;
  for (uint64_t b = 0; b < kPreload; ++b) acks.Ack(b);
  result->timer.Mark("setup");

  const double phase_s = config.trace ? config.seconds / 2 : config.seconds;
  const double open_s = 0.6 * phase_s;
  const uint64_t open_batches = static_cast<uint64_t>(kIngestRate * open_s);

  // A query names the last batch of its window; the probe series is a
  // noisy copy of one trace inside the window.
  auto window_end_of = [&](uint64_t ordinal) -> uint64_t {
    if (ordinal >= kClosedQueryOrdinals) {
      const uint64_t span = kPreload + open_batches - kWindowBatches + 1;
      return kWindowBatches - 1 + Mix(seed, 800 + ordinal) % span;
    }
    const double due_s = static_cast<double>(ordinal) / kQueryRate;
    const double newest = static_cast<double>(kPreload) +
                          (due_s - kWindowLagSeconds) * kIngestRate;
    return static_cast<uint64_t>(
        std::max(newest, static_cast<double>(kWindowBatches - 1)));
  };
  auto request_of = [&](uint64_t ordinal) {
    const uint64_t end = window_end_of(ordinal);
    const uint64_t source = end - Mix(seed, 900 + ordinal) % kWindowBatches;
    const auto trace =
        FeedSeries(seed, source, Mix(seed, 950 + ordinal) % kBatch);
    api::QueryRequest request;
    request.index = "live";
    request.query = NoisyQuery(trace[0], kNoise, Mix(seed, 970 + ordinal));
    request.window = coconut::core::TimeWindow{
        static_cast<int64_t>((end + 1 - kWindowBatches) * kBatch),
        static_cast<int64_t>(end * kBatch + kBatch - 1)};
    return request;
  };
  auto ingest_of = [&](uint64_t ordinal) {
    const auto batch = FeedBatch(seed, kPreload + ordinal);
    api::IngestBatchRequest request;
    request.stream = "live";
    request.batch = batch.series;
    request.timestamps = batch.timestamps;
    return request;
  };

  Tracer tracer;
  Tracer* trace = config.trace ? &tracer : nullptr;
  FrontDoor door(service.get(), trace, config.nproc);
  LoadSpec spec;
  spec.port = door.port();
  spec.connections = config.nproc;
  // Queries and batches on their own connections, as a monitor and a feed
  // would be.
  spec.connections_per_type = {config.nproc / 2,
                               config.nproc - config.nproc / 2};
  spec.make = [&](int type, uint64_t ordinal) {
    if (type == kIngest) {
      return Request{"/api/v1/ingest_batch",
                     ingest_of(ordinal).ToJsonString()};
    }
    return Request{"/api/v1/query", request_of(ordinal).ToJsonString()};
  };
  // A window is checkable when all its batches were acknowledged before
  // the query was sent.
  spec.before_send = [&](int, uint64_t) { return acks.Prefix(); };
  spec.after_reply = [&](const Outcome& o) {
    if (o.type == kIngest && o.ok) acks.Ack(kPreload + o.ordinal);
  };
  spec.tracer = trace;

  // Background-strand state, sampled while the load runs.
  std::atomic<bool> sampling{true};
  uint64_t pending_max = 0;
  std::thread sampler([&] {
    while (sampling.load()) {
      const coconut::stream::StreamingStats stats =
          service->stream_index("live")->SnapshotStats();
      pending_max = std::max(pending_max, stats.pending_tasks);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  const coconut::stream::StreamingStats stats_before =
      service->stream_index("live")->SnapshotStats();

  std::vector<Outcome> open =
      RunOpenLoop(spec, OpenLoopSchedule({kQueryRate, kIngestRate}, open_s));
  spec.tracer = nullptr;
  ClosedLoop writers = RunClosedLoop(
      spec, 0.1 * phase_s, [](uint64_t) { return kIngest; }, kNumTypes,
      open_batches);
  ClosedLoop readers = RunClosedLoop(
      spec, 0.3 * phase_s, [](uint64_t) { return kQuery; }, kNumTypes,
      kClosedQueryOrdinals);

  // drain_stream after the last batch, through the front door.
  Outcome drain_outcome;
  double drain_s = 0.0;
  {
    coconut::palm::BlockingHttpClient client("127.0.0.1", door.port());
    const Clock::time_point start = Clock::now();
    auto reply = client.Post("/api/v1/drain_stream", "{\"stream\":\"live\"}");
    drain_s = SecondsSince(start);
    Require(reply.status(), "drain");
    drain_outcome.ok = reply.value().status == 200;
    drain_outcome.body = reply.value().body;
  }
  sampling = false;
  sampler.join();
  const coconut::stream::StreamingStats stats_after =
      service->stream_index("live")->SnapshotStats();

  result->timer.Mark("load");

  // ---- answer checks (untimed).
  uint64_t acked_series = kPreload * kBatch;
  std::vector<double> ingest_seconds;
  for (const std::vector<Outcome>* phase : {&open, &writers.outcomes}) {
    for (const Outcome& o : *phase) {
      if (o.type != kIngest || !o.ok) continue;
      acked_series += IngestedCount(o.body);
      auto json = coconut::JsonParse(o.body);
      if (json.ok()) {
        auto parsed = api::IngestBatchReport::FromJson(json.value());
        if (parsed.ok()) ingest_seconds.push_back(parsed.value().seconds);
      }
    }
  }
  api::DrainStreamReport drained;
  if (drain_outcome.ok) {
    auto json = coconut::JsonParse(drain_outcome.body);
    drain_outcome.ok = json.ok();
    if (json.ok()) {
      auto parsed = api::DrainStreamReport::FromJson(json.value());
      drain_outcome.ok = parsed.ok();
      if (parsed.ok()) drained = parsed.value();
    }
  }
  result->tally.Add("drain", 1, drain_outcome.ok ? 0 : 1);
  if (drained.total_entries != acked_series) {
    report.Note("MISMATCH: stream holds " +
                std::to_string(drained.total_entries) + " entries, " +
                std::to_string(acked_series) + " acknowledged");
    ++result->wrong_answers;
  }

  // Windowed answers: brute force over the window's series. Checks run in
  // window order, so each checking thread slides along the feed and
  // generates every batch it needs once.
  std::vector<std::pair<uint64_t, Outcome*>> windows;
  size_t unchecked = 0;
  for (std::vector<Outcome>* phase : {&open, &readers.outcomes}) {
    for (Outcome& o : *phase) {
      if (o.type != kQuery || !o.ok) continue;
      const uint64_t end = window_end_of(o.ordinal);
      if (o.tag < end + 1) {
        ++unchecked;
      } else {
        windows.emplace_back(end, &o);
      }
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const size_t chunk = (windows.size() + config.nproc - 1) / config.nproc;
  std::atomic<size_t> wrong_windows{0};
  auto check_chunk = [&](size_t c) {
    std::map<uint64_t, coconut::series::SeriesCollection> feed;
    for (size_t i = c * chunk; i < std::min(windows.size(), (c + 1) * chunk);
         ++i) {
      const uint64_t end = windows[i].first;
      const uint64_t first = end + 1 - kWindowBatches;
      Outcome& o = *windows[i].second;
      while (!feed.empty() && feed.begin()->first < first) {
        feed.erase(feed.begin());
      }
      for (uint64_t b = first; b <= end; ++b) {
        if (feed.count(b) == 0) feed.emplace(b, StoredBatch(seed, b));
      }
      std::vector<float> query = request_of(o.ordinal).query;
      coconut::series::ZNormalize(query);
      api::QueryReport got;
      const int64_t lo = static_cast<int64_t>(first * kBatch);
      const bool right =
          ParseQueryReport(o.body, &got) && got.found && got.timestamp >= lo &&
          IsExactNearest(
              query,
              [&](size_t k) { return feed.at(first + k / kBatch)[k % kBatch]; },
              kWindowBatches * kBatch, static_cast<size_t>(got.timestamp - lo),
              got.distance);
      if (!right) {
        o.ok = false;
        wrong_windows.fetch_add(1);
      }
    }
    return true;
  };
  ParallelCount(config.nproc, config.nproc, check_chunk);
  result->wrong_answers += wrong_windows.load();
  if (unchecked > 0) {
    report.Note(std::to_string(unchecked) +
                " windowed queries were sent before their window was fully "
                "acknowledged and are not checked");
  }

  // Whole-stream exact answers after the drain: brute force over every
  // acknowledged batch, streamed (each checking thread scans a range of
  // batches and keeps the best distance per query).
  {
    const uint64_t batches = kPreload + open_batches + writers.outcomes.size();
    std::vector<uint64_t> acked_batches;
    for (uint64_t b = 0; b < batches; ++b) {
      if (acks.Acked(b)) acked_batches.push_back(b);
    }
    std::vector<std::vector<float>> queries;
    std::vector<api::QueryReport> answers;
    for (size_t q = 0; q < kFullChecks; ++q) {
      const uint64_t b =
          acked_batches[Mix(seed, 990 + q) % acked_batches.size()];
      api::QueryRequest request;
      request.index = "live";
      request.query =
          NoisyQuery(StoredBatch(seed, b)[Mix(seed, 993 + q) % kBatch], kNoise,
                     Mix(seed, 995 + q));
      answers.push_back(Require(service->Query(request), "full query"));
      coconut::series::ZNormalize(request.query);
      queries.push_back(request.query);
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> best(
        config.nproc, std::vector<double>(kFullChecks, kInf));
    const size_t span =
        (acked_batches.size() + config.nproc - 1) / config.nproc;
    ParallelCount(config.nproc, config.nproc, [&](size_t c) {
      const size_t end = std::min(acked_batches.size(), (c + 1) * span);
      for (size_t i = c * span; i < end; ++i) {
        const coconut::series::SeriesCollection batch =
            StoredBatch(seed, acked_batches[i]);
        for (size_t j = 0; j < kBatch; ++j) {
          for (size_t q = 0; q < kFullChecks; ++q) {
            best[c][q] = std::min(best[c][q],
                                  coconut::series::EuclideanSquaredEarlyAbandon(
                                      queries[q], batch[j], best[c][q]));
          }
        }
      }
      return true;
    });
    size_t full_wrong = 0;
    for (size_t q = 0; q < kFullChecks; ++q) {
      double nearest = kInf;
      for (const auto& per_thread : best) {
        nearest = std::min(nearest, per_thread[q]);
      }
      const api::QueryReport& got = answers[q];
      const uint64_t b = static_cast<uint64_t>(got.timestamp) / kBatch;
      const bool right =
          got.found && got.timestamp >= 0 && acks.Acked(b) &&
          DistancesMatch(got.distance * got.distance, nearest) &&
          DistancesMatch(
              got.distance * got.distance,
              coconut::series::EuclideanSquared(
                  queries[q], StoredBatch(seed, b)[got.timestamp % kBatch]));
      full_wrong += right ? 0 : 1;
    }
    result->tally.Add("query-full", kFullChecks, full_wrong);
    result->wrong_answers += full_wrong;
  }
  result->timer.Mark("check");
  result->tally.Add("query", open, kQuery);
  result->tally.Add("ingest", open, kIngest);
  result->tally.Add("ingest-closed", writers.outcomes, kIngest);
  result->tally.Add("query-closed", readers.outcomes, kQuery);

  // ---- end-to-end metrics.
  const std::vector<Samples> samples = SamplesByType(open, kNumTypes);
  report.Set("setup_s", setup_s, "s");
  LatencyMetrics("query", samples[kQuery], &report);
  LatencyMetrics("ingest", samples[kIngest], &report);
  uint64_t writer_series = 0;
  for (const Outcome& o : writers.outcomes) {
    if (o.ok) writer_series += IngestedCount(o.body);
  }
  report.Set("ingest_peak_series_per_s",
             static_cast<double>(writer_series) / writers.seconds, "1/s");
  report.Set("query_peak_qps", readers.Throughput(kQuery), "1/s");
  report.Set("drain_s", drain_s, "s");
  report.Set("space_amp",
             static_cast<double>(drained.total_bytes) /
                 static_cast<double>(
                     std::max<uint64_t>(drained.total_entries, 1) *
                     kSeriesLength * sizeof(float)),
             "ratio");
  LagMetric(open, &report);
  Samples batch_ms;
  for (double s : ingest_seconds) batch_ms.Add(s * 1e3);
  report.Set("stream.ingest_batch_p50_ms", batch_ms.Percentile(0.50), "ms");
  report.Set("stream.ingest_batch_p99_ms", batch_ms.Percentile(0.99), "ms");
  report.Set("stream.seals_completed",
             static_cast<double>(stats_after.seals_completed -
                                 stats_before.seals_completed),
             "count");
  report.Set("stream.merges_completed",
             static_cast<double>(stats_after.merges_completed -
                                 stats_before.merges_completed),
             "count");
  report.Set("stream.pending_max", static_cast<double>(pending_max), "count");
  report.Set("stream.ingest_stalls",
             static_cast<double>(stats_after.ingest_stalls -
                                 stats_before.ingest_stalls),
             "count");
  const coconut::storage::IoStats stream_io =
      service->index_storage("live")->SnapshotIoStats();
  report.Set("wal.stream_write_bytes_per_series",
             static_cast<double>(stream_io.bytes_written) /
                 static_cast<double>(std::max<uint64_t>(acked_series, 1)),
             "B");

  if (config.trace) {
    TraceMetrics(tracer, open, kQuery, &report);
    std::vector<api::QueryRequest> exact;
    for (uint64_t i = 0; i < 1000; ++i) {
      exact.push_back(request_of(kClosedQueryOrdinals + (1ull << 30) + i));
    }
    std::vector<api::QueryRequest> approx(exact.begin(), exact.begin() + 200);
    for (api::QueryRequest& r : approx) r.exact = false;
    const IndexTarget target{service.get(), "live"};
    ProbeIndex({target}, exact, approx, 1000, &report);
    ProbeOpWait(
        target,
        [&](uint64_t k) {
          return request_of(kClosedQueryOrdinals + (1ull << 31) + k);
        },
        config.nproc, 0.75, &report);
    std::vector<std::string> bodies, responses;
    std::vector<api::QueryRequest> requests;
    std::vector<api::QueryReport> answers;
    for (size_t i = 0; i < open.size() && requests.size() < 256; ++i) {
      api::QueryReport answer;
      if (open[i].type != kQuery || !ParseQueryReport(open[i].body, &answer)) {
        continue;
      }
      requests.push_back(request_of(open[i].ordinal));
      bodies.push_back(requests.back().ToJsonString());
      responses.push_back(open[i].body);
      answers.push_back(answer);
    }
    const api::IngestBatchRequest ingest = ingest_of(0);
    ProbeCodec(bodies, responses, ingest.ToJsonString(), false, kBatch,
               &report);
    ProbeCache(requests, answers, &report);
    ProbeWal(config.work_dir + "/wal_probe", ingest.batch, &report);
    coconut::series::SeriesCollection sample(kSeriesLength);
    for (uint64_t b = 0; b < kPreload * 2; ++b) {
      const auto batch = FeedBatch(seed, b);
      for (size_t j = 0; j < kBatch; ++j) sample.Append(batch.series[j]);
    }
    ProbeKernels(sample, &report);
  }
  report.Set("peak_rss_mib", PeakRssMib(), "MiB");
  result->timer.Mark(config.trace ? "probes" : "metrics");
}

}  // namespace perfbench
