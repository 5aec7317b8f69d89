// dist-fanout: the distributed deployment. A coordinator over K=2
// in-process shard servers (each an api::Service behind its own HTTP
// server) holds a sharded static random-walk index queried with distinct
// exact queries, plus a 2-shard async non-durable CTree-TP stream fed
// with binary ingest_batch_bin frames, all in one open loop; then the
// stream is drained and nproc callers saturate the query path. The only workload that runs src/dist:
// scatter, fold, ShardClient and two HTTP hops per request.
#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "dist/binary_codec.h"
#include "dist/coordinator.h"
#include "dist/service_endpoint.h"
#include "palm/http_client.h"
#include "probes.h"
#include "series/series.h"
#include "tests/test_util.h"
#include "workloads.h"

namespace perfbench {

namespace api = coconut::palm::api;
namespace dist = coconut::palm::dist;

namespace {

constexpr size_t kShards = 2;
constexpr size_t kSeries = 8192;
constexpr size_t kBatch = 64;
constexpr double kNoise = 0.1;
/// Open-loop rates (recorded in BENCHMARK.json): queries/s, frames/s.
constexpr double kQueryRate = 90.0;
constexpr double kIngestRate = 100.0;
constexpr int kSetupReps = 5;
constexpr uint64_t kClosedOrdinals = 1ull << 20;
constexpr uint64_t kProbeOrdinals = 2ull << 20;

enum OpType { kQuery = 0, kIngest = 1, kNumTypes = 2 };

/// One shard server: a complete Palm service behind the shard endpoint.
struct Shard {
  std::unique_ptr<api::Service> service;
  std::unique_ptr<dist::ServiceEndpoint> endpoint;
  std::unique_ptr<FrontDoor> door;
};

}  // namespace

void RunDistFanout(const RunConfig& config, RunResult* result) {
  Report& report = result->report;
  const uint64_t seed = config.seed;
  coconut::series::SeriesCollection data = coconut::testutil::
      RandomWalkCollection(kSeries, kSeriesLength, Mix(seed, 1));

  std::vector<Shard> shards(kShards);
  dist::CoordinatorOptions options;
  for (size_t s = 0; s < kShards; ++s) {
    shards[s].service = Require(
        api::Service::Create(config.work_dir + "/shard" + std::to_string(s)),
        "shard service");
    shards[s].endpoint =
        std::make_unique<dist::ServiceEndpoint>(shards[s].service.get());
    shards[s].door = std::make_unique<FrontDoor>(shards[s].endpoint.get(),
                                                 nullptr, config.nproc);
    options.shards.push_back(dist::ShardEndpoint{"127.0.0.1",
                                                 shards[s].door->port()});
  }
  auto coordinator = Require(dist::Coordinator::Create(std::move(options)),
                             "coordinator");
  result->timer.Mark("generate");

  coconut::palm::VariantSpec index_spec;
  index_spec.num_shards = kShards;
  coconut::palm::VariantSpec stream_spec;
  stream_spec.family = coconut::palm::IndexFamily::kCTree;
  stream_spec.mode = coconut::palm::StreamMode::kTP;
  stream_spec.async_ingest = true;
  stream_spec.num_shards = kShards;

  // ---- fixture: register + sharded build + stream, through the
  // coordinator's typed calls.
  const double setup_s = MedianSetupSeconds(
      kSetupReps,
      [&](int) {
        api::RegisterDatasetRequest reg;
        reg.name = "walk";
        reg.data = data;
        Require(coordinator->RegisterDataset(reg), "register");
        api::BuildIndexRequest build;
        build.index = "walk";
        build.dataset = "walk";
        build.spec = index_spec;
        Require(coordinator->BuildIndex(build), "build");
        api::CreateStreamRequest create;
        create.stream = "live";
        create.spec = stream_spec;
        Require(coordinator->CreateStream(create), "create stream");
      },
      [&](int) {
        Require(coordinator->DropIndex(api::DropIndexRequest{"walk"}), "drop");
        Require(coordinator->DropDataset(api::DropDatasetRequest{"walk"}),
                "drop dataset");
        Require(coordinator->DropIndex(api::DropIndexRequest{"live"}),
                "drop stream");
      });
  for (size_t i = 0; i < data.size(); ++i) {
    coconut::series::ZNormalize(data.Mutable(i));
  }
  result->timer.Mark("setup");

  auto query_of = [&](uint64_t ordinal) {
    api::QueryRequest request;
    request.index = "walk";
    request.query = NoisyQuery(data[Mix(seed, 100 + ordinal) % kSeries],
                               kNoise, Mix(seed, 200 + ordinal));
    return request;
  };
  auto frame_of = [&](uint64_t ordinal) {
    api::IngestBatchRequest request;
    request.stream = "live";
    request.batch = coconut::testutil::RandomWalkCollection(
        kBatch, kSeriesLength, Mix(seed, 2000 + ordinal));
    for (size_t j = 0; j < kBatch; ++j) {
      request.timestamps.push_back(static_cast<int64_t>(ordinal * kBatch + j));
    }
    return dist::EncodeIngestFrame(request);
  };

  Tracer tracer;
  Tracer* trace = config.trace ? &tracer : nullptr;
  FrontDoor door(coordinator.get(), trace, config.nproc);
  LoadSpec spec;
  spec.port = door.port();
  spec.connections = config.nproc;
  // Queries and frames on their own connections, as readers and a feed
  // would be.
  spec.connections_per_type = {config.nproc / 2,
                               config.nproc - config.nproc / 2};
  spec.make = [&](int type, uint64_t ordinal) {
    if (type == kIngest) {
      return Request{"/api/v1/ingest_batch_bin", frame_of(ordinal), true};
    }
    return Request{"/api/v1/query", query_of(ordinal).ToJsonString()};
  };
  spec.tracer = trace;

  const double phase_s = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<Outcome> open = RunOpenLoop(
      spec, OpenLoopSchedule({kQueryRate, kIngestRate}, 0.7 * phase_s));
  spec.tracer = nullptr;
  Outcome drain;
  double drain_s = 0.0;
  {
    coconut::palm::BlockingHttpClient client("127.0.0.1", door.port());
    const Clock::time_point start = Clock::now();
    auto reply = client.Post("/api/v1/drain_stream", "{\"stream\":\"live\"}");
    drain_s = SecondsSince(start);
    Require(reply.status(), "drain");
    drain.ok = reply.value().status == 200;
    drain.body = reply.value().body;
  }

  ClosedLoop closed = RunClosedLoop(
      spec, 0.3 * phase_s, [](uint64_t) { return kQuery; }, kNumTypes,
      kClosedOrdinals);
  result->timer.Mark("load");

  // ---- answer checks (untimed).
  auto outcome_query = [&](const Outcome& o) {
    return query_of(o.ordinal).query;
  };
  auto is_query = [](const Outcome& o) { return o.type == kQuery; };
  result->wrong_answers +=
      CheckStaticExact(&open, is_query, outcome_query, data, config.nproc) +
      CheckStaticExact(&closed.outcomes, is_query, outcome_query, data,
                       config.nproc);
  uint64_t acked = 0;
  for (const Outcome& o : open) {
    if (o.type == kIngest && o.ok) acked += IngestedCount(o.body);
  }
  uint64_t stream_entries = 0;
  if (drain.ok) {
    auto json = coconut::JsonParse(drain.body);
    auto parsed = json.ok() ? api::DrainStreamReport::FromJson(json.value())
                            : coconut::Result<api::DrainStreamReport>(
                                  json.status());
    drain.ok = parsed.ok();
    if (parsed.ok()) stream_entries = parsed.value().total_entries;
  }
  result->tally.Add("drain", 1, drain.ok ? 0 : 1);
  if (stream_entries != acked) {
    report.Note("MISMATCH: stream holds " + std::to_string(stream_entries) +
                " entries, " + std::to_string(acked) + " acknowledged");
    ++result->wrong_answers;
  }
  result->timer.Mark("check");
  result->tally.Add("query", open, kQuery);
  result->tally.Add("ingest", open, kIngest);
  result->tally.Add("query-closed", closed.outcomes, kQuery);

  // ---- end-to-end metrics.
  const std::vector<Samples> samples = SamplesByType(open, kNumTypes);
  report.Set("setup_s", setup_s, "s");
  LatencyMetrics("query", samples[kQuery], &report);
  LatencyMetrics("ingest", samples[kIngest], &report);
  report.Set("query_peak_qps", closed.Throughput(kQuery), "1/s");
  report.Set("drain_s", drain_s, "s");
  uint64_t disk_bytes = 0;
  const api::ListIndexesResponse listed =
      Require(coordinator->ListIndexes(), "list indexes");
  for (const auto& index : listed.indexes) disk_bytes += index.total_bytes;
  report.Set("space_amp",
             static_cast<double>(disk_bytes) /
                 static_cast<double>((kSeries + stream_entries) *
                                     kSeriesLength * sizeof(float)),
             "ratio");
  LagMetric(open, &report);
  uint64_t shard_failures = 0;
  for (const auto& health : coordinator->ServerStats().shards) {
    shard_failures += health.failures;
  }
  report.Set("dist.shard_failures", static_cast<double>(shard_failures),
             "count");

  if (config.trace) {
    TraceMetrics(tracer, open, kQuery, &report);
    // Coordinator round trip minus the slowest direct shard round trip of
    // the same query body.
    std::vector<double> self_ms, shard_ms;
    {
      coconut::palm::BlockingHttpClient front("127.0.0.1", door.port());
      std::vector<std::unique_ptr<coconut::palm::BlockingHttpClient>> direct;
      for (const Shard& shard : shards) {
        direct.push_back(std::make_unique<coconut::palm::BlockingHttpClient>(
            "127.0.0.1", shard.door->port()));
      }
      for (uint64_t i = 0; i < 200; ++i) {
        const std::string body = query_of(kProbeOrdinals + i).ToJsonString();
        Clock::time_point t = Clock::now();
        Require(front.Post("/api/v1/query", body).status(), "coordinator");
        const double via_coordinator = MsBetween(t, Clock::now());
        double slowest = 0.0;
        for (auto& client : direct) {
          t = Clock::now();
          Require(client->Post("/api/v1/query", body).status(), "shard");
          const double ms = MsBetween(t, Clock::now());
          shard_ms.push_back(ms);
          slowest = std::max(slowest, ms);
        }
        self_ms.push_back(via_coordinator - slowest);
      }
    }
    report.Set("dist.self_ms", Median(self_ms), "ms");
    report.Set("dist.shard_query_p50_ms", Median(shard_ms), "ms");

    std::vector<api::QueryRequest> exact;
    for (uint64_t i = 0; i < 500; ++i) {
      exact.push_back(query_of(kProbeOrdinals + 1000 + i));
    }
    std::vector<api::QueryRequest> approx(exact.begin(), exact.begin() + 100);
    for (api::QueryRequest& r : approx) r.exact = false;
    std::vector<IndexTarget> targets;
    for (const Shard& shard : shards) {
      targets.push_back(IndexTarget{shard.service.get(), "walk"});
    }
    ProbeIndex(targets, exact, approx, 1000, &report);
    ProbeOpWait(
        targets[0],
        [&](uint64_t k) { return query_of(kProbeOrdinals + 5000 + k); },
        config.nproc, 0.75, &report);
    std::vector<std::string> bodies, responses;
    std::vector<api::QueryRequest> requests;
    std::vector<api::QueryReport> answers;
    for (size_t i = 0; i < open.size() && requests.size() < 256; ++i) {
      api::QueryReport answer;
      if (open[i].type != kQuery || !ParseQueryReport(open[i].body, &answer)) {
        continue;
      }
      requests.push_back(query_of(open[i].ordinal));
      bodies.push_back(requests.back().ToJsonString());
      responses.push_back(open[i].body);
      answers.push_back(answer);
    }
    ProbeCodec(bodies, responses, frame_of(0), true, kBatch, &report);
    ProbeCache(requests, answers, &report);
    coconut::series::SeriesCollection batch(kSeriesLength);
    for (size_t i = 0; i < kBatch; ++i) batch.Append(data[i]);
    ProbeWal(config.work_dir + "/wal_probe", batch, &report);
    coconut::series::SeriesCollection sample(kSeriesLength);
    for (size_t i = 0; i < 4096; ++i) sample.Append(data[i]);
    ProbeKernels(sample, &report);
  }
  report.Set("peak_rss_mib", PeakRssMib(), "MiB");
  result->timer.Mark(config.trace ? "probes" : "metrics");
}

}  // namespace perfbench
