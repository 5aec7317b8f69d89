// hot-explore: Palm Scenario 1 as palm_serve offers it, answer cache on.
// A small CTree over ~16k astronomy light curves; queries are drawn
// Zipf-style from a pool of noisy copies of pattern-carrying curves, larger
// than the cache (about 80% approximate, 20% exact), plus a small share of
// heat-map
// queries (the Palm access panel) that bypass the cache. The front door,
// JSON codec, cache and api dispatch do most of the work here.
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "palm/query_cache.h"
#include "probes.h"
#include "series/series.h"
#include "workload/astronomy.h"
#include "workloads.h"

namespace perfbench {

namespace api = coconut::palm::api;

namespace {

constexpr size_t kSeries = 16384;
/// Distinct pooled queries: more than the cache's 4096 entries.
constexpr size_t kPool = 6144;
constexpr double kZipfExponent = 0.9;
constexpr double kNoise = 0.1;
/// Open-loop rates, requests/s (recorded in BENCHMARK.json): pooled
/// queries at about half the closed-loop peak, heat-map queries at 5% of
/// the traffic.
constexpr double kQueryRate = 1000.0;
constexpr double kHeatmapRate = 50.0;
constexpr int kSetupReps = 9;
constexpr double kWarmupSeconds = 1.5;
constexpr uint64_t kClosedOrdinals = 1ull << 20;
constexpr uint64_t kWarmupOrdinals = 1ull << 30;
constexpr uint64_t kProbeSalt = 1ull << 40;

enum OpType { kQuery = 0, kHeatmap = 1, kNumTypes = 2 };

}  // namespace

void RunHotExplore(const RunConfig& config, RunResult* result) {
  Report& report = result->report;
  coconut::workload::AstronomyGenerator::Options gen_options;
  gen_options.series_length = kSeriesLength;
  gen_options.seed = Mix(config.seed, 1);
  coconut::workload::AstronomyGenerator generator(gen_options);
  coconut::series::SeriesCollection data = generator.Generate(kSeries);
  result->timer.Mark("generate");

  auto service = Require(api::Service::Create(config.work_dir + "/service"),
                         "service");
  service->EnableQueryCache(api::QueryCacheOptions{});
  api::BuildIndexReport build;
  const double setup_s = MedianSetupSeconds(
      kSetupReps,
      [&](int) {
        Require(service->RegisterDataset("curves", data, nullptr), "register");
        build = Require(service->BuildIndex(
                            "curves", coconut::palm::VariantSpec{}, "curves"),
                        "build");
      },
      [&](int) {
        Require(service->DropIndex("curves"), "drop index");
        Require(service->DropDataset("curves"), "drop dataset");
      });
  // Cache-off twins every reply is compared against (one per checking
  // thread: a static index answers one query at a time).
  std::vector<std::unique_ptr<api::Service>> references;
  for (size_t r = 0; r < config.nproc; ++r) {
    references.push_back(
        Require(api::Service::Create(config.work_dir + "/reference" +
                                     std::to_string(r)),
                "reference"));
    Require(references[r]->RegisterDataset("curves", data, nullptr),
            "register");
    Require(references[r]->BuildIndex("curves", coconut::palm::VariantSpec{},
                                      "curves"),
            "build");
  }
  for (size_t i = 0; i < data.size(); ++i) {
    coconut::series::ZNormalize(data.Mutable(i));
  }
  result->timer.Mark("setup");

  // Pool entry p: a noisy copy of one of the stored curves that carry a
  // pattern (binary star, supernova, variable star) -- what an analyst
  // picks in the GUI to find similar ones. One in five is exact.
  std::vector<size_t> patterned;
  for (size_t i = 0; i < kSeries; ++i) {
    if (generator.labels()[i] != coconut::workload::AstronomyClass::kNoise) {
      patterned.push_back(i);
    }
  }
  auto pooled = [&](uint64_t p) {
    api::QueryRequest request;
    request.index = "curves";
    const size_t curve =
        patterned[Mix(config.seed, 300 + p) % patterned.size()];
    request.query = NoisyQuery(data[curve], kNoise, Mix(config.seed, 400 + p));
    request.exact = Mix(config.seed, 500 + p) % 5 == 0;
    return request;
  };
  const ZipfSampler zipf(kPool, kZipfExponent);
  // Which pool entry the ordinal-th request of a type asks for.
  auto entry_of = [&](int type, uint64_t ordinal) -> uint64_t {
    if (type == kHeatmap) return Mix(config.seed, 600 + ordinal) % kPool;
    coconut::Rng rng(Mix(config.seed, 700 + ordinal));
    return zipf.Sample(&rng);
  };
  auto request_of = [&](int type, uint64_t ordinal) {
    api::QueryRequest request = pooled(entry_of(type, ordinal));
    if (type == kHeatmap) {
      request.exact = false;
      request.capture_heatmap = true;
    }
    return request;
  };
  // Pooled query bodies are encoded once, so the client threads spend
  // their CPU on the wire, not on generating the same requests again.
  std::vector<std::string> pooled_bodies;
  pooled_bodies.reserve(kPool);
  for (uint64_t p = 0; p < kPool; ++p) {
    pooled_bodies.push_back(pooled(p).ToJsonString());
  }

  Tracer tracer;
  Tracer* trace = config.trace ? &tracer : nullptr;
  FrontDoor door(service.get(), trace, config.nproc);
  LoadSpec spec;
  spec.port = door.port();
  spec.connections = config.nproc;
  spec.make = [&](int type, uint64_t ordinal) {
    if (type == kQuery) {
      return Request{"/api/v1/query", pooled_bodies[entry_of(type, ordinal)]};
    }
    return Request{"/api/v1/query", request_of(type, ordinal).ToJsonString()};
  };
  spec.tracer = trace;

  // Untimed warm-up from the same Zipf distribution (its own ordinals),
  // so the timed phases see the cache's steady state, not its fill.
  RunClosedLoop(spec, kWarmupSeconds, [](uint64_t) { return kQuery; },
                kNumTypes, kWarmupOrdinals);
  result->timer.Mark("warmup");
  const api::ServerStatsResponse before = service->ServerStats();
  const double phase_s = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<Outcome> open = RunOpenLoop(
      spec, OpenLoopSchedule({kQueryRate, kHeatmapRate}, 0.6 * phase_s));
  spec.tracer = nullptr;
  ClosedLoop closed = RunClosedLoop(
      spec, 0.4 * phase_s,
      [](uint64_t k) { return k % 20 == 19 ? kHeatmap : kQuery; }, kNumTypes,
      kClosedOrdinals);
  const api::ServerStatsResponse after = service->ServerStats();
  result->timer.Mark("load");

  // ---- answer checks (untimed): every reply equals the cache-off
  // recomputation byte for byte (timing and I/O aside), and exact ones are
  // the brute-force nearest neighbour.
  // Expected answer bytes per (entry, exact), from a cache-off twin; an
  // exact one must also be the brute-force nearest neighbour, checked once
  // per entry (an empty string marks a reference that failed it).
  std::unordered_map<uint64_t, std::string> expected;
  std::mutex expected_mu;
  auto expected_for = [&](uint64_t entry, bool exact) {
    const uint64_t key = entry * 2 + (exact ? 1 : 0);
    {
      std::lock_guard<std::mutex> lock(expected_mu);
      auto it = expected.find(key);
      if (it != expected.end()) return it->second;
    }
    api::QueryRequest request = pooled(entry);
    request.exact = exact;
    const api::QueryReport answer = Require(
        references[key % references.size()]->Query(request), "reference");
    std::string bytes = AnswerBytes(answer);
    if (exact) {
      coconut::series::ZNormalize(request.query);
      if (!IsExactNearest(
              request.query, [&](size_t c) { return data[c]; }, data.size(),
              answer.series_id, answer.distance)) {
        bytes.clear();
      }
    }
    std::lock_guard<std::mutex> lock(expected_mu);
    return expected.emplace(key, std::move(bytes)).first->second;
  };
  auto check = [&](std::vector<Outcome>* outcomes) {
    return ParallelCount(outcomes->size(), config.nproc, [&](size_t i) {
      Outcome& o = (*outcomes)[i];
      if (!o.ok) return true;
      api::QueryReport got;
      bool right = ParseQueryReport(o.body, &got);
      if (right && o.type == kHeatmap) {
        right = got.has_heatmap;
        got.has_heatmap = false;
        got.heatmap = coconut::palm::HeatMap{};
        got.access_locality = 0.0;
      }
      right = right && AnswerBytes(got) ==
                           expected_for(entry_of(o.type, o.ordinal), got.exact);
      if (!right) o.ok = false;
      return right;
    });
  };
  result->wrong_answers += check(&open) + check(&closed.outcomes);
  result->timer.Mark("check");
  result->tally.Add("query", open, kQuery);
  result->tally.Add("heatmap", open, kHeatmap);
  result->tally.Add("query-closed", closed.outcomes, kQuery);
  result->tally.Add("heatmap-closed", closed.outcomes, kHeatmap);

  // ---- end-to-end metrics.
  const std::vector<Samples> samples = SamplesByType(open, kNumTypes);
  report.Set("setup_s", setup_s, "s");
  LatencyMetrics("query", samples[kQuery], &report);
  LatencyMetrics("heatmap", samples[kHeatmap], &report);
  report.Set("query_peak_qps", closed.TotalThroughput(), "1/s");
  report.Set("space_amp",
             static_cast<double>(build.total_bytes) /
                 static_cast<double>(kSeries * kSeriesLength * sizeof(float)),
             "ratio");
  LagMetric(open, &report);
  const uint64_t hits = after.cache_hits - before.cache_hits;
  const uint64_t lookups = hits + after.cache_misses - before.cache_misses;
  report.Set("cache.hit_ratio",
             lookups > 0 ? static_cast<double>(hits) /
                               static_cast<double>(lookups)
                         : 0.0,
             "ratio");
  report.Set("cache.evictions",
             static_cast<double>(after.cache_evictions -
                                 before.cache_evictions),
             "count");
  report.Set("cache.invalidations",
             static_cast<double>(after.cache_invalidations -
                                 before.cache_invalidations),
             "count");
  report.Set("ctree.build_s", build.build_seconds, "s");

  if (config.trace) {
    TraceMetrics(tracer, open, kQuery, &report);
    // Fresh requests (outside the pool) so no probe is a cache hit.
    auto fresh = [&](uint64_t p) {
      api::QueryRequest r = pooled(p);
      r.exact = true;
      return r;
    };
    std::vector<api::QueryRequest> exact;
    for (uint64_t i = 0; i < 1000; ++i) exact.push_back(fresh(kProbeSalt + i));
    std::vector<api::QueryRequest> approx(exact.begin(), exact.begin() + 200);
    for (api::QueryRequest& r : approx) r.exact = false;
    const IndexTarget target{service.get(), "curves"};
    ProbeIndex({target}, exact, approx, 1000, &report);
    ProbeOpWait(
        target, [&](uint64_t k) { return fresh(kProbeSalt + 1000 + k); },
        config.nproc, 0.75, &report);
    // A typed Service::Query answered from the cache: the pool's head
    // entry is resident after the run.
    std::vector<double> typed_hit_us;
    const api::QueryRequest head = pooled(0);
    Require(service->Query(head).status(), "warm");
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t = Clock::now();
      Require(service->Query(head).status(), "typed hit");
      typed_hit_us.push_back(MsBetween(t, Clock::now()) * 1e3);
    }
    report.Set("cache.typed_hit_us", Median(typed_hit_us), "us");

    std::vector<std::string> bodies, responses;
    std::vector<api::QueryRequest> requests;
    std::vector<api::QueryReport> answers;
    for (size_t i = 0; i < open.size() && requests.size() < 256; ++i) {
      api::QueryReport answer;
      if (open[i].type != kQuery || !ParseQueryReport(open[i].body, &answer)) {
        continue;
      }
      requests.push_back(request_of(open[i].type, open[i].ordinal));
      bodies.push_back(requests.back().ToJsonString());
      responses.push_back(open[i].body);
      answers.push_back(answer);
    }
    coconut::series::SeriesCollection batch(kSeriesLength);
    api::IngestBatchRequest ingest;
    ingest.stream = "curves";
    for (size_t i = 0; i < 64; ++i) {
      batch.Append(data[i]);
      ingest.timestamps.push_back(static_cast<int64_t>(i));
    }
    ingest.batch = batch;
    ProbeCodec(bodies, responses, ingest.ToJsonString(), false, 64, &report);
    ProbeCache(requests, answers, &report);
    ProbeWal(config.work_dir + "/wal_probe", batch, &report);
    coconut::series::SeriesCollection sample(kSeriesLength);
    for (size_t i = 0; i < 4096; ++i) sample.Append(data[i]);
    ProbeKernels(sample, &report);
  }
  report.Set("peak_rss_mib", PeakRssMib(), "MiB");
  result->timer.Mark(config.trace ? "probes" : "metrics");
}

}  // namespace perfbench
