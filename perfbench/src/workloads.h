// The four workloads. Each builds its fixture from --seed, drives the HTTP
// front door, checks every answer after the timed region and fills the
// report (end-to-end metrics always; per-layer metrics when traced).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "loadgen.h"
#include "oracle.h"

namespace perfbench {

struct RunResult {
  Report report;
  Tally tally;
  /// Answers that failed a check (each also counts as a failed operation).
  size_t wrong_answers = 0;
  PhaseTimer timer;
};

void RunStaticExplore(const RunConfig& config, RunResult* result);
void RunStreamIngest(const RunConfig& config, RunResult* result);
void RunHotExplore(const RunConfig& config, RunResult* result);
void RunDistFanout(const RunConfig& config, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
