// static-explore: Palm Scenario 1 on a large collection. ~100k random-walk
// series in a default CTree (answer cache off, the service default); the
// analyst sends distinct exact 1-NN queries that are noisy copies of
// stored series, first as an open loop at a fixed rate, then as a closed
// loop of nproc callers. The index fits the 4 MiB per-index pool, the raw
// series do not, so ctree, storage and the distance kernels do the work.
#include <algorithm>

#include "probes.h"
#include "series/series.h"
#include "tests/test_util.h"
#include "workloads.h"

namespace perfbench {

namespace api = coconut::palm::api;

namespace {

constexpr size_t kSeries = 64000;
constexpr double kNoise = 0.1;
/// Open-loop query rate, q/s: about half the closed-loop peak measured on
/// the parent commit (recorded in BENCHMARK.json; never derived at run
/// time).
constexpr double kQueryRate = 70.0;
constexpr int kSetupReps = 5;
constexpr uint64_t kClosedOrdinals = 1ull << 20;
constexpr uint64_t kProbeOrdinals = 2ull << 20;

}  // namespace

void RunStaticExplore(const RunConfig& config, RunResult* result) {
  Report& report = result->report;
  coconut::series::SeriesCollection data = coconut::testutil::
      RandomWalkCollection(kSeries, kSeriesLength, Mix(config.seed, 1));
  auto service = Require(api::Service::Create(config.work_dir + "/service"),
                         "service");
  result->timer.Mark("generate");

  // ---- fixture: register + build, timed kSetupReps times.
  api::BuildIndexReport build;
  const double setup_s = MedianSetupSeconds(
      kSetupReps,
      [&](int) {
        Require(service->RegisterDataset("walk", data, nullptr), "register");
        build = Require(
            service->BuildIndex("walk", coconut::palm::VariantSpec{}, "walk"),
            "build");
      },
      [&](int) {
        Require(service->DropIndex("walk"), "drop index");
        Require(service->DropDataset("walk"), "drop dataset");
      });
  // The service stores z-normalized copies; normalize ours the same way
  // so the oracle sees the stored bits.
  for (size_t i = 0; i < data.size(); ++i) {
    coconut::series::ZNormalize(data.Mutable(i));
  }
  result->timer.Mark("setup");

  auto query_of = [&](uint64_t ordinal) {
    const size_t base = Mix(config.seed, 100 + ordinal) % kSeries;
    return NoisyQuery(data[base], kNoise, Mix(config.seed, 200 + ordinal));
  };
  auto request_of = [&](uint64_t ordinal) {
    api::QueryRequest request;
    request.index = "walk";
    request.query = query_of(ordinal);
    return request;
  };

  Tracer tracer;
  Tracer* trace = config.trace ? &tracer : nullptr;
  FrontDoor door(service.get(), trace, config.nproc);
  LoadSpec spec;
  spec.port = door.port();
  spec.connections = config.nproc;
  spec.make = [&](int, uint64_t ordinal) {
    return Request{"/api/v1/query", request_of(ordinal).ToJsonString()};
  };
  spec.tracer = trace;

  // Traced runs spend half the measured time on the layer probes.
  const double phase_s = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<Outcome> open =
      RunOpenLoop(spec, OpenLoopSchedule({kQueryRate}, 0.75 * phase_s));
  spec.tracer = nullptr;
  ClosedLoop closed = RunClosedLoop(
      spec, 0.25 * phase_s, [](uint64_t) { return 0; }, 1, kClosedOrdinals);

  result->timer.Mark("load");

  // ---- answer checks (untimed).
  auto outcome_query = [&](const Outcome& o) { return query_of(o.ordinal); };
  auto all_exact = [](const Outcome&) { return true; };
  const size_t wrong =
      CheckStaticExact(&open, all_exact, outcome_query, data, config.nproc) +
      CheckStaticExact(&closed.outcomes, all_exact, outcome_query, data,
                       config.nproc);
  result->tally.Add("query", open, 0);
  result->tally.Add("query-closed", closed.outcomes, 0);
  result->wrong_answers += wrong;
  result->timer.Mark("check");

  // ---- end-to-end metrics.
  report.Set("setup_s", setup_s, "s");
  LatencyMetrics("query", SamplesByType(open, 1)[0], &report);
  report.Set("query_peak_qps", closed.Throughput(), "1/s");
  report.Set("space_amp",
             static_cast<double>(build.total_bytes) /
                 static_cast<double>(kSeries * kSeriesLength * sizeof(float)),
             "ratio");
  LagMetric(open, &report);
  report.Set("ctree.build_s", build.build_seconds, "s");
  const double writes = static_cast<double>(build.io.total_writes());
  report.Set("storage.build_seq_write_share",
             writes > 0 ? static_cast<double>(build.io.sequential_writes) /
                              writes
                        : 0.0,
             "ratio");

  if (config.trace) {
    TraceMetrics(tracer, open, 0, &report);
    std::vector<api::QueryRequest> exact;
    for (uint64_t i = 0; i < 1000; ++i) {
      exact.push_back(request_of(kProbeOrdinals + i));
    }
    std::vector<api::QueryRequest> approx(exact.begin(), exact.begin() + 200);
    for (api::QueryRequest& r : approx) r.exact = false;
    const IndexTarget target{service.get(), "walk"};
    ProbeIndex({target}, exact, approx, 1000, &report);
    ProbeOpWait(
        target,
        [&](uint64_t k) { return request_of(kProbeOrdinals + 1000 + k); },
        config.nproc, 0.75, &report);
    std::vector<std::string> bodies, responses;
    std::vector<api::QueryRequest> cached;
    std::vector<api::QueryReport> answers;
    for (size_t i = 0; i < std::min<size_t>(open.size(), 256); ++i) {
      bodies.push_back(request_of(open[i].ordinal).ToJsonString());
      api::QueryReport answer;
      if (!ParseQueryReport(open[i].body, &answer)) continue;
      responses.push_back(open[i].body);
      cached.push_back(request_of(open[i].ordinal));
      answers.push_back(answer);
    }
    coconut::series::SeriesCollection batch(kSeriesLength);
    api::IngestBatchRequest ingest;
    ingest.stream = "walk";
    for (size_t i = 0; i < 64; ++i) {
      batch.Append(data[i]);
      ingest.timestamps.push_back(static_cast<int64_t>(i));
    }
    ingest.batch = batch;
    ProbeCodec(bodies, responses, ingest.ToJsonString(), false, 64, &report);
    ProbeCache(cached, answers, &report);
    ProbeWal(config.work_dir + "/wal_probe", batch, &report);
    coconut::series::SeriesCollection sample(kSeriesLength);
    for (size_t i = 0; i < 4096; ++i) sample.Append(data[i]);
    ProbeKernels(sample, &report);
  }
  report.Set("peak_rss_mib", PeakRssMib(), "MiB");
  result->timer.Mark(config.trace ? "probes" : "metrics");
}

}  // namespace perfbench
