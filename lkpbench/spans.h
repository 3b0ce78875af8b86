// In-memory spans recorded by the benchmark around its own calls into
// each layer of the library (nothing inside src/ is instrumented). A
// span records its name, start, end, parent span and the request or
// batch id it belongs to; spans are kept in memory during the timed
// region and written out when the run ends.

#ifndef LKPBENCH_SPANS_H_
#define LKPBENCH_SPANS_H_

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "stats.h"

namespace lkpbench {

/// Every span the benchmark records. The depth orders layers by the call
/// hierarchy (the benchmark calls the service, the service calls the
/// model), which is how concurrent spans on other threads are attributed.
enum SpanName : int {
  kBench,                // Root: the traced timed region.
  kBenchClient,          // The client's own work: drawing requests, checks.
  kBenchWait,            // Open-loop generator idle until its next send.
  kServeBatch,           // RecommendationService::HandleBatch.
  kServeRequest,         // Async request: scheduled send -> future ready.
  kUpdateEnqueue,        // ModelUpdater::Enqueue.
  kUpdateApply,          // ModelUpdater::ApplyPending.
  kExpRun,               // ExperimentRunner::Run.
  kTrainBuildEpoch,      // GroundSetBuilder::BuildEpoch (+ shuffle).
  kTrainPrefixForward,   // RecModel::StartBatch (shared GCN prefix).
  kTrainAccumulate,      // AccumulateBatchGradients.
  kTrainPrefixBackward,  // RecModel::Batch::Finish.
  kTrainStep,            // AdamOptimizer::Step.
  kModelsScore,          // RecModel::ScoreAllItems, on pool threads.
  kTrainCriterion,       // LkpCriterion::Evaluate, on pool threads.
  kNumSpanNames
};

struct SpanInfo {
  const char* name;
  int depth;
};

inline const SpanInfo& InfoOf(int name) {
  static const SpanInfo kInfo[kNumSpanNames] = {
      {"bench", 0},
      {"bench.client", 1},
      {"bench.wait", 1},
      {"serve.batch", 2},
      {"serve.request", 2},
      {"update.enqueue", 2},
      {"update.apply", 2},
      {"exp.run", 2},
      {"train.build_epoch", 2},
      {"train.prefix_forward", 2},
      {"train.accumulate", 2},
      {"train.prefix_backward", 2},
      {"train.step", 2},
      {"models.score", 3},
      {"train.criterion", 3},
  };
  return kInfo[name];
}

struct Span {
  int name = kBench;
  int parent = -1;  // Index of the parent span, -1 for the root.
  long id = -1;     // Request, batch, epoch or user id; -1 when none.
  int thread = 0;
  double begin = 0.0;  // Seconds since the recorder's origin.
  double end = -1.0;   // -1 while open.
};

/// Thread-safe span store. One mutex guards the vector: spans arrive at
/// tens of thousands per second at most, far below contention range.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  double Now() const { return At(Clock::now()); }

  /// A steady_clock instant in the recorder's seconds.
  double At(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration<double>(tp - origin_).count();
  }

  /// Opens a span starting now; returns its index for Close.
  int Open(int name, int parent, long id) {
    const double t = Now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, parent, id, lkpdpp::obs::CurrentThreadId(),
                          t, -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }

  void Close(int index) {
    const double t = Now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<size_t>(index)].end = t;
  }

  /// Records a finished span whose endpoints the caller measured.
  void Add(int name, int parent, long id, double begin, double end) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, parent, id, lkpdpp::obs::CurrentThreadId(),
                          begin, end});
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  /// Writes one tab-separated line per span (times in microseconds).
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "index\tname\tparent\tid\tthread\tbegin_us\tend_us\n");
    std::lock_guard<std::mutex> lk(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%d\t%ld\t%d\t%.3f\t%.3f\n", i,
                   InfoOf(s.name).name, s.parent, s.id, s.thread,
                   s.begin * 1e6, s.end * 1e6);
    }
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, int name, int parent, long id)
      : rec_(rec), index_(rec != nullptr ? rec->Open(name, parent, id) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int index_;
};

/// Per-span-name wall shares of the root span's interval (see
/// AttributeWall) plus each name's summed duration and count.
struct SpanSummary {
  double wall = 0.0;
  std::vector<double> share_s;     // Wall-attributed seconds per name.
  std::vector<double> total_s;     // Summed durations per name.
  std::vector<long> count;         // Closed spans per name.
  std::vector<std::vector<double>> durations_ms;  // Per name.
  double unaccounted_s = 0.0;      // Root self time + uncovered time.
};

inline SpanSummary Summarize(const std::vector<Span>& spans, int root) {
  SpanSummary out;
  out.share_s.assign(kNumSpanNames, 0.0);
  out.total_s.assign(kNumSpanNames, 0.0);
  out.count.assign(kNumSpanNames, 0);
  out.durations_ms.assign(kNumSpanNames, {});
  if (root < 0 || root >= static_cast<int>(spans.size())) return out;
  const Span& r = spans[static_cast<size_t>(root)];
  const Interval window{r.begin, r.end};
  out.wall = r.end - r.begin;
  std::vector<LayerInterval> layered;
  layered.reserve(spans.size());
  for (const Span& s : spans) {
    if (s.end < s.begin) continue;  // Never closed.
    layered.push_back(
        LayerInterval{Interval{s.begin, s.end}, s.name, InfoOf(s.name).depth});
    out.total_s[static_cast<size_t>(s.name)] += s.end - s.begin;
    ++out.count[static_cast<size_t>(s.name)];
    out.durations_ms[static_cast<size_t>(s.name)].push_back(
        (s.end - s.begin) * 1e3);
  }
  double uncovered = 0.0;
  out.share_s = AttributeWall(layered, window, kNumSpanNames, &uncovered);
  out.unaccounted_s = uncovered + out.share_s[kBench];
  return out;
}

}  // namespace lkpbench

#endif  // LKPBENCH_SPANS_H_
