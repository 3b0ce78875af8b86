#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "probe.h"
#include "workloads.h"

namespace lkpbench {

namespace {

// Share of the traced wall time the spanned layers may leave unaccounted
// (time only the benchmark root, or no span, covers).
constexpr double kReconcileTolerance = 0.05;

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t s = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  return lkpdpp::SplitMix64(&s);
}

void Digest::Mix(uint64_t v) { state_ = DeriveSeed(state_, v + 1); }

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double ProbeMs() {
  constexpr size_t kWords = 32768;  // 256 KB of doubles.
  std::vector<double> buf(kWords);
  std::vector<double> times;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto t0 = std::chrono::steady_clock::now();
    std::fill(buf.begin(), buf.end(), 1.0);
    double acc = 0.0;
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int pass = 0; pass < 60; ++pass) {
      for (size_t i = 0; i < kWords; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += buf[i] * 1.0000001 + buf[x % kWords] * 0.5;
        buf[i] = acc * 1e-9 + 1.0;
      }
    }
    times.push_back(SecondsSince(t0) * 1e3);
    if (!std::isfinite(acc)) times.back() = 0.0;
  }
  return MedianOf(times);
}

double TimedProbe(SpanRecorder* rec, int root) {
  ScopedSpan span(rec, kBenchClient, root, -1);
  return ProbeMs();
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void CheckDigest(const Options& opts, bool complete, uint64_t digest,
                 Report* report) {
  if (!complete) {
    std::printf("digest: run too short to cover the digest prefix; "
                "cross-run comparison skipped\n");
    return;
  }
  // state_dir is private to one build of the code (run.py names it after
  // the binary's hash), so only runs of the same code are compared.
  const std::string path = opts.state_dir + "/digest-" + opts.workload +
                           "-" + std::to_string(opts.seed) + ".txt";
  uint64_t stored = 0;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    const int got = std::fscanf(f, "%" SCNx64, &stored);
    std::fclose(f);
    if (got == 1) {
      std::printf("digest: %016" PRIx64 " (stored %016" PRIx64 ")\n", digest,
                  stored);
      report->Check(stored == digest,
                    "response digest differs from an earlier run of this "
                    "workload and seed");
      return;
    }
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%016" PRIx64 "\n", digest);
    std::fclose(f);
  }
  std::printf("digest: %016" PRIx64 " (first run of this seed and build; "
              "stored)\n",
              digest);
}

void ReportSpans(const Options& opts, const SpanRecorder& rec, int root,
                 Report* report) {
  const std::vector<Span> spans = rec.Snapshot();
  const SpanSummary sum = Summarize(spans, root);
  std::printf("\n--- traced wall attribution (wall %.3f s, %zu spans) ---\n",
              sum.wall, spans.size());
  std::printf("%-24s %9s %12s %12s %9s\n", "span", "count", "total_ms",
              "self_ms", "self_frac");
  double attributed = 0.0;
  for (int name = 0; name < kNumSpanNames; ++name) {
    const double share = sum.share_s[static_cast<size_t>(name)];
    attributed += share;
    if (name != kBench) {
      report->Set(SelfFracName(name), sum.wall > 0 ? share / sum.wall : 0.0,
                  "ratio");
    }
    if (sum.count[static_cast<size_t>(name)] == 0) continue;
    std::printf("%-24s %9ld %12.3f %12.3f %9.4f\n", InfoOf(name).name,
                sum.count[static_cast<size_t>(name)],
                sum.total_s[static_cast<size_t>(name)] * 1e3, share * 1e3,
                sum.wall > 0 ? share / sum.wall : 0.0);
  }
  const Reconciliation rc =
      Reconcile(sum.wall, sum.unaccounted_s, kReconcileTolerance);
  std::printf("attributed %.3f ms of %.3f ms wall; unaccounted %.4f "
              "(tolerance %.2f) -> %s\n",
              attributed * 1e3, sum.wall * 1e3, rc.unaccounted_frac,
              kReconcileTolerance, rc.ok ? "reconciled" : "NOT RECONCILED");
  report->Set("trace.unaccounted_frac", rc.unaccounted_frac, "ratio");
  report->Check(rc.ok, "traced spans leave more than the tolerated share of "
                       "wall time unaccounted");
  const std::string path = opts.state_dir + "/spans-" + opts.workload + ".tsv";
  if (rec.Write(path)) {
    std::printf("spans written to %s\n", path.c_str());
  } else {
    std::printf("could not write spans to %s\n", path.c_str());
  }
}

void PrintHeader(const Options& opts, const std::string& layout) {
  std::printf("workload=%s seed=%" PRIu64 " seconds=%.3g trace=%d cores=%u\n",
              opts.workload.c_str(), opts.seed, opts.seconds,
              opts.trace ? 1 : 0, std::thread::hardware_concurrency());
  std::printf("threads: %s\n", layout.c_str());
  std::fflush(stdout);
}

}  // namespace lkpbench
