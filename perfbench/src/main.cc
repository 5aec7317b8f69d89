// Palm benchmark entry point:
//
//   palmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --emit <metric,metric,...> --work-dir <dir>
//
// Runs one workload against an in-process Palm service behind the real
// HTTP server, checks every answer, prints readable notes and metric
// lines, and ends with one JSON line carrying the `--emit` metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    if (comma > pos) out.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: palmbench --workload static-explore|stream-ingest|"
               "hot-explore|dist-fanout --seed N --seconds S --trace 0|1 "
               "--emit m1,m2,... --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string emit;
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::atoi(value) != 0;
    } else if (flag == "--emit") {
      emit = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || config.work_dir.empty() || config.seconds <= 0) {
    return Usage();
  }
  // Load comes from at most four client threads, whatever the machine.
  config.nproc = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);

  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);
  perfbench::RunResult result;
  perfbench::DescribeRun(config, workload, &result.report);
  if (workload == "static-explore") {
    perfbench::RunStaticExplore(config, &result);
  } else if (workload == "stream-ingest") {
    perfbench::RunStreamIngest(config, &result);
  } else if (workload == "hot-explore") {
    perfbench::RunHotExplore(config, &result);
  } else if (workload == "dist-fanout") {
    perfbench::RunDistFanout(config, &result);
  } else {
    return Usage();
  }
  std::filesystem::remove_all(config.work_dir);

  result.timer.Describe(&result.report);
  result.tally.Describe(&result.report);
  if (result.wrong_answers > 0) {
    result.report.Note("MISMATCH: " + std::to_string(result.wrong_answers) +
                       " answers failed their check");
  }
  const bool printed = result.report.Print(
      SplitCommas(emit), result.wrong_answers == 0, result.tally.attempted(),
      result.tally.failed());
  return printed ? 0 : 1;
}
