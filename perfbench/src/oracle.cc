#include "oracle.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "series/distance.h"

namespace perfbench {

bool DistancesMatch(double a_sq, double b_sq) {
  return std::abs(a_sq - b_sq) <= 1e-6 * std::max(1.0, std::max(a_sq, b_sq));
}

bool IsExactNearest(std::span<const float> query, const CandidateFn& candidate,
                    size_t count, size_t answer, double distance) {
  if (answer >= count) return false;
  const double reported_sq = distance * distance;
  if (!DistancesMatch(reported_sq, coconut::series::EuclideanSquared(
                                       query, candidate(answer)))) {
    return false;
  }
  // Strictly closer than the slack allows: a different, nearer answer.
  const double limit = reported_sq - 1e-6 * std::max(1.0, reported_sq);
  for (size_t i = 0; i < count; ++i) {
    if (coconut::series::EuclideanSquaredEarlyAbandon(query, candidate(i),
                                                      limit) < limit) {
      return false;
    }
  }
  return true;
}

std::string AnswerBytes(coconut::palm::api::QueryReport report) {
  report.seconds = 0.0;
  report.io = coconut::storage::IoStats{};
  return report.ToJsonString();
}

bool ParseQueryReport(const std::string& body,
                      coconut::palm::api::QueryReport* report) {
  auto json = coconut::JsonParse(body);
  if (!json.ok()) return false;
  auto parsed = coconut::palm::api::QueryReport::FromJson(json.value());
  if (!parsed.ok()) return false;
  *report = std::move(parsed).TakeValue();
  return true;
}

}  // namespace perfbench
