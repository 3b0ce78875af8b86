// Shared declarations of the four workloads and their helpers.

#ifndef LKPBENCH_WORKLOADS_H_
#define LKPBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "probe.h"
#include "report.h"
#include "spans.h"

namespace lkpbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for response digests and span files (inside the checkout),
  /// one per build of the code under test.
  std::string state_dir;
  std::chrono::steady_clock::time_point process_start;
};

void RunMapBatch(const Options& opts, Report* report);
void RunSampleAsync(const Options& opts, Report* report);
void RunStreamUpdate(const Options& opts, Report* report);
void RunTrainLkp(const Options& opts, Report* report);

/// Independent sub-seed of the workload seed (SplitMix64 of seed ^ salt),
/// so every generated input changes with --seed and with nothing else.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// Order-sensitive 64-bit digest of a response stream.
class Digest {
 public:
  void Mix(uint64_t v);
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0x6C6B7062656E6368ULL;
};

/// Windows of every timed pass: gated metrics are medians over them.
inline constexpr int kWindows = 10;

/// Seconds elapsed since `start`.
double SecondsSince(std::chrono::steady_clock::time_point start);

/// Milliseconds from `a` to `b`.
inline double MsBetween(std::chrono::steady_clock::time_point a,
                        std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Unwraps a set-up step's result; on error prints it and exits with 2
/// (no result line: the run did not happen).
template <typename T>
T OrDie(lkpdpp::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "set-up failed (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).ValueOrDie();
}

/// Runs `build` (returning a unique_ptr) `repeats` times, freeing each
/// set-up before the next, and returns the last. Reports setup_s: the
/// median set-up time, the first timed from process start (untraced runs
/// only), rescaled to reference speed by the median of the probes taken
/// after each set-up.
template <typename Build>
auto RepeatSetup(const Options& opts, int repeats, Report* report,
                 const Build& build) -> decltype(build()) {
  decltype(build()) kept;
  std::vector<double> seconds;
  std::vector<double> probes;
  std::printf("set-ups (the first from process start):");
  for (int rep = 0; rep < repeats; ++rep) {
    kept.reset();
    const auto start =
        rep == 0 ? opts.process_start : std::chrono::steady_clock::now();
    kept = build();
    seconds.push_back(SecondsSince(start));
    probes.push_back(ProbeMs());
    std::printf(" %.4f s", seconds.back());
  }
  const double slowdown = MedianOf(probes) / kProbeReferenceMs;
  std::printf("; slowdown vs reference %.3f\n", slowdown);
  report->Set("setup_s", MedianOf(seconds) / slowdown, "s", repeats);
  return kept;
}

/// Times the reference probe inside a bench.client span.
double TimedProbe(SpanRecorder* rec, int root);

/// Peak resident set of the process so far, in MB.
double PeakRssMb();

/// The response digest must match across the untraced and traced passes
/// of one run and across runs of one seed with one build: the first run
/// of a (workload, seed) stores it under state_dir, which is private to
/// the build, and later runs compare.
void CheckDigest(const Options& opts, bool complete, uint64_t digest,
                 Report* report);

/// Reports the traced pass's wall attribution: per-span-name self-time
/// shares, the unaccounted share, and the reconciliation verdict. Also
/// writes the spans to state_dir.
void ReportSpans(const Options& opts, const SpanRecorder& rec, int root,
                 Report* report);

/// Prints the workload header: cores, thread layout, seed.
void PrintHeader(const Options& opts, const std::string& layout);

}  // namespace lkpbench

#endif  // LKPBENCH_WORKLOADS_H_
