// Answer checks, run after the timed region.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <functional>
#include <span>
#include <string>

#include "palm/api.h"

namespace perfbench {

/// Candidate `i` of an exact search, i in [0, count).
using CandidateFn = std::function<std::span<const float>(size_t i)>;

/// True when candidate `answer` at Euclidean distance `distance` is an
/// exact 1-NN of the z-normalized `query` among the `count` candidates:
/// its recomputed distance matches and no candidate is closer (equal
/// distances are ties, which any exact index may break either way). This
/// is the verdict testutil::BruteForceKnn(k = 1) gives; the scan abandons
/// a candidate once it is provably farther, which keeps checking every
/// exact answer of a run affordable (the self-tests hold the two equal).
bool IsExactNearest(std::span<const float> query, const CandidateFn& candidate,
                    size_t count, size_t answer, double distance);

/// Squared distances equal up to the reassociation slack of the SIMD
/// distance kernels.
bool DistancesMatch(double a_sq, double b_sq);

/// The answer of a query report as bytes: the report's JSON with the
/// timing and I/O fields zeroed, since those describe how the answer was
/// produced (cache, buffer pool state), not the answer.
std::string AnswerBytes(coconut::palm::api::QueryReport report);

/// Parses a query response body; false on malformed JSON.
bool ParseQueryReport(const std::string& body,
                      coconut::palm::api::QueryReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
