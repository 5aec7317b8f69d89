// E2/F2 (Scenario 1 query phase): approximate and exact query cost across
// families on the same static collection, plus the access-locality number
// behind the heat map. Expected shape: CTree answers with fewer I/Os and
// far higher locality than ADS+; materialization removes raw fetches.
//
// Also measures the service-layer dispatch overhead of the API redesign
// (BM_Dispatch*): the same exact query through (a) the typed
// api::Service::Query path, (b) the legacy string-returning
// palm::Server::Query wrapper, and (c) the full JSON-RPC
// Service::Dispatch round trip (parse request JSON -> typed call ->
// serialize response). (c) minus (a) is what the wire format costs; CI
// uploads these as a JSON artifact to track the tax over time.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "bench/bench_util.h"
#include "palm/heatmap.h"
#include "palm/server.h"
#include "series/kernels.h"
#include "storage/io_scope.h"

namespace coconut {
namespace bench {
namespace {

constexpr size_t kCount = 16'000;
constexpr int kQuerySeed = 1234;

struct PreparedIndex {
  Arena arena;
  std::unique_ptr<core::DataSeriesIndex> index;
};

PreparedIndex* Prepare(palm::IndexFamily family, bool materialized) {
  // Cache one built index per (family, materialized) across benchmark runs.
  static std::map<std::pair<int, bool>, std::unique_ptr<PreparedIndex>> cache;
  auto key = std::make_pair(static_cast<int>(family), materialized);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto prepared = std::make_unique<PreparedIndex>();
    prepared->arena = Arena::Make("bench_query", 256);
    const auto& collection = AstroCollection(kCount);
    prepared->arena.FillRaw(collection);
    palm::VariantSpec spec;
    spec.sax = BenchSax();
    spec.family = family;
    spec.materialized = materialized;
    spec.buffer_entries = 4096;
    prepared->index = BuildStatic(spec, &prepared->arena, collection);
    it = cache.emplace(key, std::move(prepared)).first;
  }
  return it->second.get();
}

void RunQuery(benchmark::State& state, palm::IndexFamily family,
              bool materialized, bool exact) {
  PreparedIndex* prepared = Prepare(family, materialized);
  const auto& collection = AstroCollection(kCount);
  auto queries = workload::MakeNoisyQueries(collection, 64, 0.4, kQuerySeed);

  core::QueryCounters counters;
  size_t q = 0;
  // Every query of the run charges this scope, which records the accesses
  // behind the locality figure.
  storage::IoScope scope(/*capture_accesses=*/true);
  for (auto _ : state) {
    auto result =
        exact ? prepared->index->ExactSearch(queries[q % queries.size()], {},
                                             &counters)
              : prepared->index->ApproxSearch(queries[q % queries.size()], {},
                                              &counters);
    benchmark::DoNotOptimize(result.value().distance_sq);
    ++q;
  }
  const storage::IoStats& io = scope.stats();

  const double per_query = q > 0 ? 1.0 / q : 0.0;
  state.counters["reads_per_query"] =
      static_cast<double>(io.total_reads()) * per_query;
  state.counters["raw_fetches_per_query"] =
      static_cast<double>(counters.raw_fetches) * per_query;
  state.counters["leaves_pruned_per_query"] =
      static_cast<double>(counters.leaves_pruned) * per_query;
  state.counters["access_locality"] =
      palm::AccessLocality(scope.accesses());
  // Which series::kernels tier scored the distances (COCONUT_FORCE_KERNEL
  // pins it), so runs under different dispatch modes stay comparable.
  state.SetLabel(series::kernels::IsaName(series::kernels::ActiveIsa()));
}

#define QUERY_BENCH(name, family, mat, exact)          \
  void name(benchmark::State& state) {                 \
    RunQuery(state, family, mat, exact);               \
  }                                                    \
  BENCHMARK(name)->Unit(benchmark::kMillisecond)

QUERY_BENCH(BM_Approx_ADS, palm::IndexFamily::kAds, false, false);
QUERY_BENCH(BM_Approx_CTree, palm::IndexFamily::kCTree, false, false);
QUERY_BENCH(BM_Approx_CLSM, palm::IndexFamily::kClsm, false, false);
QUERY_BENCH(BM_Exact_ADS, palm::IndexFamily::kAds, false, true);
QUERY_BENCH(BM_Exact_CTree, palm::IndexFamily::kCTree, false, true);
QUERY_BENCH(BM_Exact_CLSM, palm::IndexFamily::kClsm, false, true);
QUERY_BENCH(BM_Exact_ADSFull, palm::IndexFamily::kAds, true, true);
QUERY_BENCH(BM_Exact_CTreeFull, palm::IndexFamily::kCTree, true, true);
QUERY_BENCH(BM_Exact_CLSMFull, palm::IndexFamily::kClsm, true, true);

// ------------------------------------------------- dispatch overhead

constexpr size_t kDispatchCount = 4'000;

/// One legacy Server (which owns the typed Service) with a built CTree
/// index over a small astronomy collection, shared across the dispatch
/// benchmarks.
palm::Server* DispatchServer() {
  static std::unique_ptr<palm::Server> server = [] {
    const std::string root =
        std::filesystem::temp_directory_path().string() +
        "/bench_dispatch_server";
    std::filesystem::remove_all(root);
    auto srv = palm::Server::Create(root).TakeValue();
    const auto& collection = AstroCollection(kDispatchCount);
    if (!srv->RegisterDataset("astro", collection, nullptr).ok()) {
      std::abort();
    }
    palm::VariantSpec spec;
    spec.sax = BenchSax();
    spec.family = palm::IndexFamily::kCTree;
    spec.buffer_entries = 4096;
    if (!srv->BuildIndex("ctree", spec, "astro").ok()) std::abort();
    return srv;
  }();
  return server.get();
}

std::vector<palm::api::QueryRequest> DispatchQueries() {
  const auto& collection = AstroCollection(kDispatchCount);
  auto raw = workload::MakeNoisyQueries(collection, 32, 0.4, kQuerySeed);
  std::vector<palm::api::QueryRequest> queries;
  queries.reserve(raw.size());
  for (auto& q : raw) {
    palm::api::QueryRequest request;
    request.index = "ctree";
    request.query = std::move(q);
    queries.push_back(std::move(request));
  }
  return queries;
}

/// (a) Typed path: request struct in, report struct out — no JSON at all.
void BM_Dispatch_Typed(benchmark::State& state) {
  palm::api::Service* service = DispatchServer()->service();
  const auto queries = DispatchQueries();
  size_t q = 0;
  for (auto _ : state) {
    auto report = service->Query(queries[q % queries.size()]);
    if (!report.ok()) std::abort();
    benchmark::DoNotOptimize(report.value().distance);
    ++q;
  }
}
BENCHMARK(BM_Dispatch_Typed)->Unit(benchmark::kMillisecond);

/// (b) Legacy path: the pre-redesign contract — struct in, JSON string
/// out (typed call + response serialization).
void BM_Dispatch_Legacy(benchmark::State& state) {
  palm::Server* server = DispatchServer();
  const auto queries = DispatchQueries();
  size_t q = 0;
  for (auto _ : state) {
    auto json = server->Query(queries[q % queries.size()]);
    if (!json.ok()) std::abort();
    benchmark::DoNotOptimize(json.value().size());
    ++q;
  }
}
BENCHMARK(BM_Dispatch_Legacy)->Unit(benchmark::kMillisecond);

/// (c) Wire path: JSON params in, JSON response out through
/// Service::Dispatch — what one HTTP request costs minus the socket.
void BM_Dispatch_Json(benchmark::State& state) {
  palm::api::Service* service = DispatchServer()->service();
  const auto queries = DispatchQueries();
  std::vector<std::string> params;
  params.reserve(queries.size());
  for (const auto& query : queries) params.push_back(query.ToJsonString());
  size_t q = 0;
  for (auto _ : state) {
    auto json = service->Dispatch("query", params[q % params.size()]);
    if (!json.ok()) std::abort();
    benchmark::DoNotOptimize(json.value().size());
    ++q;
  }
}
BENCHMARK(BM_Dispatch_Json)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace coconut

BENCHMARK_MAIN();
