// lkpbench: end-to-end and per-layer benchmark of LkP serving and
// training through the public API.
//
//   lkpbench --workload <map_batch|sample_async|stream_update|train_lkp>
//            --seed <n> --seconds <s> --trace <0|1> --state-dir <dir>
//
// Prints every metric with its unit and sample count, then, as the last
// line, one JSON object with every metric measured; run.py keeps the ones
// BENCHMARK.json declares. Exits 1 when an output check fails.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: lkpbench --workload <map_batch|sample_async|"
               "stream_update|train_lkp> --seed <n> --seconds <s> "
               "--trace <0|1> --state-dir <dir>\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  lkpbench::Options opts;
  opts.process_start = std::chrono::steady_clock::now();
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opts.seconds > 0)) Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage();
      opts.trace = value == "1";
    } else if (flag == "--state-dir") {
      opts.state_dir = value;
    } else {
      Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || opts.state_dir.empty()) Usage();
  std::error_code ec;
  std::filesystem::create_directories(opts.state_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opts.state_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  lkpbench::Report report;
  if (opts.workload == "map_batch") {
    lkpbench::RunMapBatch(opts, &report);
  } else if (opts.workload == "sample_async") {
    lkpbench::RunSampleAsync(opts, &report);
  } else if (opts.workload == "stream_update") {
    lkpbench::RunStreamUpdate(opts, &report);
  } else if (opts.workload == "train_lkp") {
    lkpbench::RunTrainLkp(opts, &report);
  } else {
    Usage();
  }
  report.PrintHuman();
  report.PrintResultLine();
  return report.correct() ? 0 : 1;
}
