#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <thread>

#include "common.h"
#include "common/json.h"
#include "core/types.h"
#include "dist/binary_codec.h"
#include "palm/query_cache.h"
#include "series/kernels.h"
#include "storage/storage_manager.h"
#include "stream/wal.h"

namespace perfbench {

namespace api = coconut::palm::api;
namespace kernels = coconut::series::kernels;

namespace {

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// One direct search on the target's index (static or streaming), the
/// call Service::QueryLocked makes after z-normalizing.
coconut::Result<coconut::core::SearchResult> DirectSearch(
    const IndexTarget& target, const api::QueryRequest& request,
    coconut::core::QueryCounters* counters) {
  std::vector<float> query = request.query;
  coconut::series::ZNormalize(query);
  coconut::core::SearchOptions options;
  if (request.window.has_value()) options.window = *request.window;
  options.approx_candidates = request.approx_candidates;
  if (auto* index = target.service->static_index(target.index)) {
    return request.exact ? index->ExactSearch(query, options, counters)
                         : index->ApproxSearch(query, options, counters);
  }
  auto* stream = target.service->stream_index(target.index);
  return request.exact ? stream->ExactSearch(query, options, counters)
                       : stream->ApproxSearch(query, options, counters);
}

/// Per-tier kernel timings, ns per call (median of 5 passes).
struct KernelTimes {
  double paa = 0, sax = 0, euclid_ea = 0, mindist = 0;
};

KernelTimes TimeKernels(const coconut::series::SeriesCollection& sample) {
  const kernels::KernelTable& k = kernels::Active();
  const size_t n = sample.size();
  const size_t len = sample.length();
  constexpr int kSegments = 16;
  constexpr int kBits = 8;
  std::vector<float> paa(n * kSegments);
  std::vector<uint8_t> sax(n * kSegments);
  std::vector<double> paa_ns, sax_ns, ea_ns, md_ns;
  double sink = 0.0;
  // A best-so-far a quarter of the typical distance between two
  // z-normalized series (2 * length): candidates abandon part-way, as
  // they do in a leaf scan.
  const double threshold = 0.5 * static_cast<double>(len);
  for (int pass = 0; pass < 5; ++pass) {
    Clock::time_point t = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      k.compute_paa(sample[i].data(), len, kSegments, &paa[i * kSegments]);
    }
    paa_ns.push_back(ElapsedUs(t) * 1e3 / static_cast<double>(n));
    t = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      k.sax_from_paa(&paa[i * kSegments], kSegments, kBits,
                     &sax[i * kSegments]);
    }
    sax_ns.push_back(ElapsedUs(t) * 1e3 / static_cast<double>(n));
    t = Clock::now();
    for (size_t i = 0; i + 1 < n; ++i) {
      sink += k.euclidean_sq_ea(sample[i].data(), sample[i + 1].data(), len,
                                threshold);
    }
    ea_ns.push_back(ElapsedUs(t) * 1e3 / static_cast<double>(n - 1));
    t = Clock::now();
    for (size_t i = 0; i + 2 < n; ++i) {
      // Bounds spanned by two neighbours' PAA, probed with a third's.
      float lower[kSegments];
      float upper[kSegments];
      for (int s = 0; s < kSegments; ++s) {
        lower[s] = std::min(paa[(i + 1) * kSegments + s],
                            paa[(i + 2) * kSegments + s]);
        upper[s] = std::max(paa[(i + 1) * kSegments + s],
                            paa[(i + 2) * kSegments + s]);
      }
      sink += k.mindist_acc(&paa[i * kSegments], lower, upper, kSegments);
    }
    md_ns.push_back(ElapsedUs(t) * 1e3 / static_cast<double>(n - 2));
  }
  if (sink == -1.0) std::printf("# unreachable\n");  // keeps `sink` live
  return KernelTimes{Median(paa_ns), Median(sax_ns), Median(ea_ns),
                     Median(md_ns)};
}

}  // namespace

void ProbeIndex(const std::vector<IndexTarget>& targets,
                const std::vector<api::QueryRequest>& exact,
                const std::vector<api::QueryRequest>& approx,
                size_t direct_exact, Report* report) {
  // api.query_self_us and storage.*: a warm-up direct search, then the
  // typed call and a direct search of the same request, both warm.
  constexpr size_t kTypedSamples = 100;
  std::vector<double> self_us;
  std::vector<double> direct_ms;
  coconut::core::QueryCounters counter_sum;
  uint64_t reads = 0, random_reads = 0, bytes_read = 0, typed_calls = 0;
  for (size_t i = 0; i < std::min(kTypedSamples, exact.size()); ++i) {
    for (const IndexTarget& target : targets) {
      Require(DirectSearch(target, exact[i], nullptr).status(), "warm-up");
      Clock::time_point t = Clock::now();
      const api::QueryReport typed =
          Require(target.service->Query(exact[i]), "typed query");
      const double typed_us = ElapsedUs(t);
      coconut::core::QueryCounters counters;
      t = Clock::now();
      Require(DirectSearch(target, exact[i], &counters).status(), "direct");
      const double direct_us = ElapsedUs(t);
      self_us.push_back(typed_us - direct_us);
      direct_ms.push_back(direct_us / 1e3);
      counter_sum.Add(counters);
      reads += typed.io.total_reads();
      random_reads += typed.io.random_reads;
      bytes_read += typed.io.bytes_read;
      ++typed_calls;
    }
  }
  // The rest of the direct exact searches, for the search-layer tail.
  for (size_t i = std::min(kTypedSamples, exact.size());
       direct_ms.size() < direct_exact && i < exact.size(); ++i) {
    for (const IndexTarget& target : targets) {
      coconut::core::QueryCounters counters;
      const Clock::time_point t = Clock::now();
      Require(DirectSearch(target, exact[i], &counters).status(), "direct");
      direct_ms.push_back(ElapsedUs(t) / 1e3);
      counter_sum.Add(counters);
    }
  }
  std::vector<double> approx_us;
  for (const api::QueryRequest& request : approx) {
    for (const IndexTarget& target : targets) {
      const Clock::time_point t = Clock::now();
      Require(DirectSearch(target, request, nullptr).status(), "approx");
      approx_us.push_back(ElapsedUs(t));
    }
  }
  uint64_t disk_bytes = 0;
  for (const IndexTarget& target : targets) {
    disk_bytes += target.service->index_storage(target.index)
                      ->TotalBytesOnDisk();
  }

  Samples direct;
  for (double ms : direct_ms) direct.Add(ms);
  const double n = static_cast<double>(std::max<size_t>(direct_ms.size(), 1));
  const double calls = static_cast<double>(std::max<uint64_t>(typed_calls, 1));
  report->Set("api.query_self_us", Median(self_us), "us");
  report->Set("ctree.exact_p50_ms", direct.Percentile(0.50), "ms");
  report->Set("ctree.exact_p99_ms", direct.Percentile(0.99), "ms");
  report->Set("ctree.approx_p50_us", Median(approx_us), "us");
  report->Set("ctree.leaves_visited",
              static_cast<double>(counter_sum.leaves_visited) / n, "count");
  report->Set("ctree.leaves_pruned",
              static_cast<double>(counter_sum.leaves_pruned) / n, "count");
  const double leaves = static_cast<double>(counter_sum.leaves_visited +
                                            counter_sum.leaves_pruned);
  report->Set("ctree.prune_ratio",
              leaves > 0 ? static_cast<double>(counter_sum.leaves_pruned) /
                               leaves
                         : 0.0,
              "ratio");
  report->Set("ctree.entries_examined",
              static_cast<double>(counter_sum.entries_examined) / n, "count");
  report->Set("ctree.raw_fetches",
              static_cast<double>(counter_sum.raw_fetches) / n, "count");
  report->Set("stream.partitions_visited",
              static_cast<double>(counter_sum.partitions_visited) / n,
              "count");
  report->Set("stream.partitions_skipped",
              static_cast<double>(counter_sum.partitions_skipped) / n,
              "count");
  report->Set("storage.reads_per_query", static_cast<double>(reads) / calls,
              "count");
  report->Set("storage.random_read_share",
              reads > 0 ? static_cast<double>(random_reads) /
                              static_cast<double>(reads)
                        : 0.0,
              "ratio");
  report->Set("storage.bytes_read_per_query",
              static_cast<double>(bytes_read) / calls, "B");
  report->Set("storage.disk_bytes", static_cast<double>(disk_bytes), "B");
  char line[200];
  std::snprintf(line, sizeof(line),
                "index probe: %zu direct exact searches (%zu beyond p99), "
                "%zu typed, %zu approx",
                direct_ms.size(), SamplesBeyond(direct_ms.size(), 0.99),
                static_cast<size_t>(typed_calls), approx_us.size());
  report->Note(line);
}

void ProbeOpWait(const IndexTarget& target,
                 const std::function<api::QueryRequest(uint64_t)>& request,
                 size_t callers, double seconds, Report* report) {
  std::atomic<uint64_t> next{0};
  auto run = [&](size_t threads) {
    std::vector<std::vector<double>> per_thread(threads);
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<std::thread> pool;
    for (size_t c = 0; c < threads; ++c) {
      pool.emplace_back([&, c] {
        while (Clock::now() < end) {
          const api::QueryRequest r = request(next.fetch_add(1));
          const Clock::time_point t = Clock::now();
          Require(target.service->Query(r).status(), "typed query");
          per_thread[c].push_back(MsBetween(t, Clock::now()));
        }
      });
    }
    for (std::thread& t : pool) t.join();
    double sum = 0.0;
    size_t count = 0;
    for (const auto& v : per_thread) {
      for (double ms : v) sum += ms;
      count += v.size();
    }
    return std::make_pair(sum / static_cast<double>(std::max<size_t>(count, 1)),
                          count);
  };
  const auto [alone, alone_n] = run(1);
  const auto [shared, shared_n] = run(callers);
  report->Set("api.query_wait_ms", shared - alone, "ms");
  char line[200];
  std::snprintf(line, sizeof(line),
                "typed query mean: %.3f ms alone (%zu calls), %.3f ms with "
                "%zu callers (%zu calls)",
                alone, alone_n, shared, callers, shared_n);
  report->Note(line);
}

void ProbeKernels(const coconut::series::SeriesCollection& sample,
                  Report* report) {
  for (kernels::Isa isa : kernels::SupportedIsas()) {
    kernels::ForceIsa(isa);
    const KernelTimes t = TimeKernels(sample);
    const std::string prefix =
        std::string("series.") + kernels::IsaName(isa) + ".";
    report->Set(prefix + "paa_ns", t.paa, "ns");
    report->Set(prefix + "sax_ns", t.sax, "ns");
    report->Set(prefix + "euclid_ea_ns", t.euclid_ea, "ns");
    report->Set(prefix + "mindist_ns", t.mindist, "ns");
  }
  kernels::ResetForcedIsa();
  const std::string active =
      std::string("series.") + kernels::IsaName(kernels::ActiveIsa()) + ".";
  for (const char* name : {"paa_ns", "sax_ns", "euclid_ea_ns", "mindist_ns"}) {
    report->Set(std::string("series.") + name, report->Get(active + name),
                "ns");
  }
}

void ProbeCodec(const std::vector<std::string>& query_bodies,
                const std::vector<std::string>& response_bodies,
                const std::string& ingest_body, bool binary,
                size_t ingest_series, Report* report) {
  std::vector<double> parse_us;
  for (const std::string& body : query_bodies) {
    const Clock::time_point t = Clock::now();
    auto json = coconut::JsonParse(body);
    Require(json.status(), "query json");
    Require(api::QueryRequest::FromJson(json.value()).status(), "query");
    parse_us.push_back(ElapsedUs(t));
  }
  std::vector<double> serialize_us;
  std::vector<double> sizes;
  for (const std::string& body : response_bodies) {
    auto json = coconut::JsonParse(body);
    if (!json.ok()) continue;
    auto parsed = api::QueryReport::FromJson(json.value());
    if (!parsed.ok()) continue;
    const Clock::time_point t = Clock::now();
    const std::string out = parsed.value().ToJsonString();
    serialize_us.push_back(ElapsedUs(t));
    sizes.push_back(static_cast<double>(out.size()));
  }
  std::vector<double> ingest_ms;
  for (int rep = 0; rep < 15; ++rep) {
    const Clock::time_point t = Clock::now();
    if (binary) {
      Require(coconut::palm::dist::DecodeIngestFrame(ingest_body).status(),
              "ingest frame");
    } else {
      auto json = coconut::JsonParse(ingest_body);
      Require(json.status(), "ingest json");
      Require(api::IngestBatchRequest::FromJson(json.value()).status(),
              "ingest");
    }
    ingest_ms.push_back(ElapsedUs(t) / 1e3);
  }
  report->Set("codec.query_parse_us", Median(parse_us), "us");
  report->Set("codec.report_serialize_us", Median(serialize_us), "us");
  report->Set("codec.response_bytes", Median(sizes), "B");
  report->Set("codec.ingest_parse_ms", Median(ingest_ms), "ms");
  report->Set("codec.ingest_bytes_per_series",
              static_cast<double>(ingest_body.size()) /
                  static_cast<double>(ingest_series),
              "B");
}

void ProbeWal(const std::string& dir,
              const coconut::series::SeriesCollection& batch, Report* report) {
  auto storage =
      Require(coconut::storage::StorageManager::Create(dir), "wal dir");
  auto wal = Require(
      coconut::stream::Wal::Open(storage.get(), "probe",
                                 static_cast<uint32_t>(batch.length())),
      "wal open");
  const uint64_t base_bytes = storage->TotalBytesOnDisk();
  constexpr int kCommits = 1000;
  Samples commit_ms;
  uint64_t id = 0;
  for (int c = 0; c < kCommits; ++c) {
    const Clock::time_point t = Clock::now();
    for (size_t i = 0; i < batch.size(); ++i, ++id) {
      wal->AppendAdmit(id, static_cast<int64_t>(id), batch[i]);
    }
    Require(wal->Commit(), "wal commit");
    commit_ms.Add(MsBetween(t, Clock::now()));
  }
  report->Set("wal.commit_p50_ms", commit_ms.Percentile(0.50), "ms");
  report->Set("wal.commit_p99_ms", commit_ms.Percentile(0.99), "ms");
  report->Set("wal.bytes_per_series",
              static_cast<double>(storage->TotalBytesOnDisk() - base_bytes) /
                  static_cast<double>(id),
              "B");
}

void ProbeCache(const std::vector<api::QueryRequest>& requests,
                const std::vector<api::QueryReport>& reports, Report* report) {
  api::QueryCache cache(api::QueryCacheOptions{});
  for (size_t i = 0; i < requests.size(); ++i) {
    cache.Insert(api::QueryCache::KeyFor(requests[i]), requests[i].index, 1,
                 reports[i]);
  }
  std::vector<double> hit_us;
  for (int rep = 0; rep < 4; ++rep) {
    for (const api::QueryRequest& request : requests) {
      const Clock::time_point t = Clock::now();
      const bool hit =
          cache.Lookup(api::QueryCache::KeyFor(request), 1).has_value();
      hit_us.push_back(ElapsedUs(t));
      if (!hit) Require(coconut::Status::Internal("cache miss"), "cache");
    }
  }
  report->Set("cache.hit_us", Median(hit_us), "us");
}

void TraceMetrics(const Tracer& tracer, const std::vector<Outcome>& open_loop,
                  int type, Report* report) {
  const std::vector<Span> spans = tracer.Snapshot();
  const std::map<uint64_t, int64_t> self = SelfTimes(spans);
  std::vector<double> http_self_us;
  std::vector<double> dispatch_us;
  for (const Span& s : spans) {
    // Request ids of the open loop are arrival index + 1.
    if (s.request == 0 || s.request > open_loop.size()) continue;
    if (open_loop[s.request - 1].type != type) continue;
    if (s.layer == "http") {
      http_self_us.push_back(static_cast<double>(self.at(s.id)) / 1e3);
    } else if (s.layer == "dispatch") {
      dispatch_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  std::vector<double> traced, untraced;
  for (const Outcome& o : open_loop) {
    if (o.type != type || !o.ok) continue;
    (o.traced ? traced : untraced).push_back(o.latency_ms);
  }
  const double base = Median(untraced);
  report->Set("http.self_us", Median(http_self_us), "us");
  report->Set("http.dispatch_us", Median(dispatch_us), "us");
  report->Set("trace.overhead_pct",
              base > 0 ? 100.0 * (Median(traced) - base) / base : 0.0, "%");
  char line[200];
  std::snprintf(line, sizeof(line),
                "trace: %zu spans; %zu traced vs %zu untraced requests",
                spans.size(), traced.size(), untraced.size());
  report->Note(line);
}

}  // namespace perfbench
