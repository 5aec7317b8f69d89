// Per-layer measurements of the traced run. Each probe times calls into
// one layer's public functions from the benchmark's side, on the
// workload's own requests, series and bodies, after the load phases.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "loadgen.h"
#include "palm/api.h"
#include "series/series.h"

namespace perfbench {

/// One index as the probes reach it: through its Service (typed calls)
/// and directly (Service::static_index / stream_index).
struct IndexTarget {
  coconut::palm::api::Service* service = nullptr;
  std::string index;
};

/// api.query_self_us (typed Service::Query minus a direct index search of
/// the same request), storage.* (QueryReport.io of the typed calls and
/// the index's bytes on disk) and the search-layer figures ctree.* (direct
/// ExactSearch/ApproxSearch with QueryCounters). `exact` holds requests no
/// cache has seen; `direct_exact` direct exact searches are timed in all
/// (>= 1000 resolves the p99).
void ProbeIndex(const std::vector<IndexTarget>& targets,
                const std::vector<coconut::palm::api::QueryRequest>& exact,
                const std::vector<coconut::palm::api::QueryRequest>& approx,
                size_t direct_exact, Report* report);

/// api.query_wait_ms: mean typed Query latency with `callers` concurrent
/// callers minus the mean of one caller, each for `seconds`. The mean, not
/// the p50: std::mutex is not fair, so the median caller of a serialized
/// index reacquires without waiting and the queueing sits in the tail.
/// `request(k)` builds the k-th call's request; each call gets a fresh k,
/// so an answer cache never serves one.
void ProbeOpWait(
    const IndexTarget& target,
    const std::function<coconut::palm::api::QueryRequest(uint64_t)>& request,
    size_t callers, double seconds, Report* report);

/// series.{paa,sax,euclid_ea,mindist}_ns for the active kernel tier, and
/// series.<isa>.* for every supported tier, on `sample` (z-normalized).
void ProbeKernels(const coconut::series::SeriesCollection& sample,
                  Report* report);

/// codec.*: query parse, report serialize, response size, and the decode
/// cost and size of one ingest body (JSON, or a CPBI frame if `binary`).
void ProbeCodec(const std::vector<std::string>& query_bodies,
                const std::vector<std::string>& response_bodies,
                const std::string& ingest_body, bool binary,
                size_t ingest_series, Report* report);

/// wal.commit_p50_ms / wal.commit_p99_ms / wal.bytes_per_series: a
/// benchmark-owned log in `dir` (same filesystem as the run), 1000 group
/// commits of `batch` (AppendAdmit per series, then Commit).
void ProbeWal(const std::string& dir,
              const coconut::series::SeriesCollection& batch, Report* report);

/// cache.hit_us: QueryCache::KeyFor + Lookup of a stored report, on a
/// benchmark-owned cache filled with the workload's own answers.
void ProbeCache(const std::vector<coconut::palm::api::QueryRequest>& requests,
                const std::vector<coconut::palm::api::QueryReport>& reports,
                Report* report);

/// http.self_us (the client's "http" span minus the server's "dispatch"
/// child of the same request) and trace.overhead_pct (p50 of traced
/// minus untraced open-loop requests of `type`, relative to untraced).
void TraceMetrics(const Tracer& tracer, const std::vector<Outcome>& open_loop,
                  int type, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
