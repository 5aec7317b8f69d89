// Scenario 1 of the demonstration: exploring a big static collection of
// astronomy light curves. We replay the demo script: first index with the
// state-of-the-art ADS+, then consult the recommender, repeat with its
// choice (a CoconutTree), compare construction/query metrics and access
// patterns, and watch the recommendation flip to a materialized CTree as
// the projected query count grows.
//
//   ./astronomy_exploration
#include <cstdio>
#include <filesystem>

#include "palm/comparison.h"
#include "palm/heatmap.h"
#include "palm/server.h"
#include "workload/astronomy.h"

using namespace coconut;
using palm::IndexFamily;
using palm::StreamMode;
using palm::VariantSpec;

namespace {

constexpr size_t kSeries = 16'000;
constexpr size_t kLength = 256;

series::SaxConfig Sax() {
  return series::SaxConfig{.series_length = kLength,
                           .num_segments = 16,
                           .bits_per_segment = 8};
}

double GetJsonNumber(const std::string& json, const std::string& key) {
  auto pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return 0.0;
  return std::atof(json.c_str() + pos + key.size() + 3);
}

}  // namespace

int main() {
  const std::string root = std::filesystem::temp_directory_path().string() +
                           "/coconut_astronomy_example";
  auto server = palm::Server::Create(root).TakeValue();

  // -- The raw astronomy collection (synthetic light curves with planted
  //    binary-star / supernova / variable-star patterns).
  workload::AstronomyGenerator::Options gopts;
  gopts.series_length = kLength;
  workload::AstronomyGenerator gen(gopts);
  auto collection = gen.Generate(kSeries);
  if (auto st = server->RegisterDataset("sky", collection, nullptr); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("collection: %zu light curves of length %zu\n\n", kSeries,
              kLength);

  // -- Step 1: the state of the art, ADS+.
  VariantSpec ads;
  ads.sax = Sax();
  ads.family = IndexFamily::kAds;
  std::string ads_report = server->BuildIndex("ads", ads, "sky").TakeValue();
  std::printf("ADS+ build:  %s\n\n", ads_report.c_str());

  // -- Step 2: consult the recommender for this scenario.
  palm::Scenario scenario;
  scenario.sax = Sax();
  scenario.streaming = false;
  scenario.dataset_size = kSeries;
  scenario.expected_queries = 20;
  std::printf("recommender: %s\n\n",
              server->RecommendJson(scenario).c_str());

  // -- Step 3: build the recommended index (non-materialized CTree).
  VariantSpec ctree;
  ctree.sax = Sax();
  ctree.family = IndexFamily::kCTree;
  std::string ct_report = server->BuildIndex("ctree", ctree, "sky").TakeValue();
  std::printf("CTree build: %s\n\n", ct_report.c_str());

  std::printf("%s\n",
              palm::RenderBarChart(
                  "Index construction", "seconds",
                  {{"ADS+", GetJsonNumber(ads_report, "build_seconds")},
                   {"CTree", GetJsonNumber(ct_report, "build_seconds")}})
                  .c_str());
  std::printf("%s\n",
              palm::RenderBarChart(
                  "Construction random writes", "I/Os",
                  {{"ADS+", GetJsonNumber(ads_report, "random_writes")},
                   {"CTree", GetJsonNumber(ct_report, "random_writes")}})
                  .c_str());

  // -- Step 4: search for known patterns of interest and compare access
  //    patterns through the heat map.
  for (auto cls : {workload::AstronomyClass::kSupernova,
                   workload::AstronomyClass::kBinaryStar}) {
    auto pattern = gen.PatternTemplate(cls, 99);
    std::printf("---- searching for a %s pattern ----\n",
                workload::AstronomyClassName(cls));
    for (const std::string& index : {std::string("ads"), std::string("ctree")}) {
      palm::QueryRequest req;
      req.index = index;
      req.query = pattern;
      req.exact = true;
      req.capture_heatmap = true;
      req.heatmap_time_bins = 8;
      req.heatmap_location_bins = 56;
      std::string response = server->Query(req).TakeValue();
      const auto id = static_cast<size_t>(GetJsonNumber(response, "series_id"));
      std::printf(
          "%-6s -> series %zu (true class %s), %.1f ms, locality %.2f\n",
          index.c_str(), id, workload::AstronomyClassName(gen.labels()[id]),
          GetJsonNumber(response, "seconds") * 1e3,
          GetJsonNumber(response, "access_locality"));
    }
  }

  // Render one heat map pair for the demo narrative.
  std::printf("\naccess-pattern heat maps (one exact query):\n");
  for (const std::string& index : {std::string("ads"), std::string("ctree")}) {
    auto pattern = gen.PatternTemplate(workload::AstronomyClass::kSupernova, 7);
    palm::QueryRequest req;
    req.index = index;
    req.query = pattern;
    req.capture_heatmap = true;
    req.heatmap_time_bins = 8;
    req.heatmap_location_bins = 56;
    const palm::HeatMap map =
        server->service()->Query(req).TakeValue().heatmap;
    std::printf("[%s] %llu page accesses over %llu files\n%s\n", index.c_str(),
                static_cast<unsigned long long>(map.total_events),
                static_cast<unsigned long long>(map.distinct_files),
                palm::RenderHeatMapText(map).c_str());
  }

  // -- Step 5: raise the projected query count; the recommender flips to a
  //    materialized CTree.
  scenario.expected_queries = 1'000'000;
  std::printf("with 1M projected queries: %s\n\n",
              server->RecommendJson(scenario).c_str());

  VariantSpec ctree_full = ctree;
  ctree_full.materialized = true;
  std::string full_report =
      server->BuildIndex("ctree_full", ctree_full, "sky").TakeValue();

  auto pattern = gen.PatternTemplate(workload::AstronomyClass::kSupernova, 3);
  std::vector<palm::ComparisonRow> rows;
  for (const std::string& index :
       {std::string("ads"), std::string("ctree"), std::string("ctree_full")}) {
    palm::QueryRequest req;
    req.index = index;
    req.query = pattern;
    std::string response = server->Query(req).TakeValue();
    rows.push_back({index, GetJsonNumber(response, "seconds") * 1e3});
  }
  std::printf("%s\n",
              palm::RenderBarChart("Exact query latency", "ms", rows).c_str());

  std::filesystem::remove_all(root);
  return 0;
}
