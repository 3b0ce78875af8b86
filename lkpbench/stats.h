// The benchmark's own arithmetic: nearest-rank percentiles with a
// sample-support rule, speed-rescaled medians over windows, span self time as
// wall-time attribution across layers, the reconciliation tolerance, and
// the open-loop send schedule. Kept free of I/O so stats_test.cc can pin it.

#ifndef LKPBENCH_STATS_H_
#define LKPBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace lkpbench {

/// Samples a printed percentile must have strictly beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of quantile q in a sample of n: ceil(q * n),
/// clamped to [1, n]. Returns 0 for an empty sample.
inline size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  const double exact = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t rank = exact < 1.0 ? 1 : static_cast<size_t>(exact);
  return std::min(rank, n);
}

/// True when at least kMinSamplesBeyond samples lie beyond the rank.
inline bool PercentileSupported(size_t n, double q) {
  return n > 0 && n - NearestRank(n, q) >= kMinSamplesBeyond;
}

/// An ascending-sorted sample with nearest-rank percentiles.
class Distribution {
 public:
  Distribution() = default;
  explicit Distribution(std::vector<double> values)
      : sorted_(std::move(values)) {
    std::sort(sorted_.begin(), sorted_.end());
  }

  size_t size() const { return sorted_.size(); }

  /// Nearest-rank percentile; 0 on an empty sample.
  double Percentile(double q) const {
    const size_t rank = NearestRank(sorted_.size(), q);
    return rank == 0 ? 0.0 : sorted_[rank - 1];
  }

  double Mean() const {
    if (sorted_.empty()) return 0.0;
    double sum = 0.0;
    for (double v : sorted_) sum += v;
    return sum / static_cast<double>(sorted_.size());
  }

 private:
  std::vector<double> sorted_;
};

/// Median (mean of the middle pair for even sizes); 0 when empty.
inline double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// One measurement window: the latency of every operation completed in
/// it, its duration, and how slow the machine ran during it relative to a
/// reference (see ProbeMs in probe.h; 1 = reference speed).
struct Window {
  std::vector<double> latency_ms;
  double seconds = 0.0;
  double slowdown = 1.0;
};

/// Medians across windows of per-window statistics.
struct WindowedSummary {
  double rate_per_s = 0.0;  // Median completions per second.
  double p50 = 0.0;         // Median of per-window p50s.
  double p99 = 0.0;         // Median of per-window p99s.
};

/// Reports, for the completion rate and the latency p50/p99, the median
/// across windows, each window first rescaled to reference speed (a
/// window that ran twice as slow counts with twice its rate and half its
/// latencies). A burst of interference confined to fewer than half of
/// the windows moves none of the three; the rescaling removes drifts in
/// machine speed that span whole runs on a shared host.
inline WindowedSummary SummarizeWindows(const std::vector<Window>& windows) {
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const Window& w : windows) {
    if (!(w.seconds > 0.0) || !(w.slowdown > 0.0)) continue;
    rates.push_back(w.latency_ms.size() / w.seconds * w.slowdown);
    if (w.latency_ms.empty()) continue;
    const Distribution d(w.latency_ms);
    p50s.push_back(d.Percentile(0.50) / w.slowdown);
    p99s.push_back(d.Percentile(0.99) / w.slowdown);
  }
  WindowedSummary out;
  out.rate_per_s = MedianOf(rates);
  out.p50 = MedianOf(p50s);
  out.p99 = MedianOf(p99s);
  return out;
}

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// One span for wall attribution: its interval, its layer, and the
/// layer's depth in the call hierarchy (callers shallower than callees).
struct LayerInterval {
  Interval interval;
  int layer = 0;
  int depth = 0;
};

/// Splits the window's wall time across layers: each instant goes to the
/// deepest layer active at that instant on any thread (split evenly when
/// several layers of that depth are active). This is each layer's self
/// time: a parent whose children run in parallel keeps its duration minus
/// the union of its children's intervals, and the shares sum to the
/// covered part of the window. Returns one share per layer; time no span
/// covers is returned through `uncovered`.
inline std::vector<double> AttributeWall(
    const std::vector<LayerInterval>& spans, const Interval& window,
    int num_layers, double* uncovered) {
  struct Event {
    double t;
    int delta;
    int layer;
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  for (const LayerInterval& s : spans) {
    const double b = std::max(s.interval.begin, window.begin);
    const double e = std::min(s.interval.end, window.end);
    if (!(e > b)) continue;
    events.push_back(Event{b, +1, s.layer});
    events.push_back(Event{e, -1, s.layer});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });
  std::vector<int> depth_of(static_cast<size_t>(num_layers), 0);
  for (const LayerInterval& s : spans) {
    depth_of[static_cast<size_t>(s.layer)] = s.depth;
  }
  std::vector<double> share(static_cast<size_t>(num_layers), 0.0);
  std::vector<int> active(static_cast<size_t>(num_layers), 0);
  double gap = 0.0;
  double prev = window.begin;
  size_t i = 0;
  while (true) {
    const double next = i < events.size() ? events[i].t : window.end;
    if (next > prev) {
      int best_depth = -1;
      int ties = 0;
      for (int l = 0; l < num_layers; ++l) {
        if (active[static_cast<size_t>(l)] <= 0) continue;
        const int d = depth_of[static_cast<size_t>(l)];
        if (d > best_depth) {
          best_depth = d;
          ties = 1;
        } else if (d == best_depth) {
          ++ties;
        }
      }
      const double len = next - prev;
      if (ties == 0) {
        gap += len;
      } else {
        for (int l = 0; l < num_layers; ++l) {
          if (active[static_cast<size_t>(l)] > 0 &&
              depth_of[static_cast<size_t>(l)] == best_depth) {
            share[static_cast<size_t>(l)] += len / ties;
          }
        }
      }
      prev = next;
    }
    if (i >= events.size()) break;
    active[static_cast<size_t>(events[i].layer)] += events[i].delta;
    ++i;
  }
  if (uncovered != nullptr) *uncovered = gap;
  return share;
}

/// The traced-run reconciliation: the layers the benchmark spans must
/// account for all but `tolerance` of the traced wall time. `unaccounted`
/// is the time only the root span (the benchmark itself) or no span at
/// all covered.
struct Reconciliation {
  double wall = 0.0;
  double unaccounted = 0.0;
  double unaccounted_frac = 0.0;
  bool ok = false;
};

inline Reconciliation Reconcile(double wall, double unaccounted,
                                double tolerance) {
  Reconciliation r;
  r.wall = wall;
  r.unaccounted = unaccounted;
  r.unaccounted_frac = wall > 0.0 ? unaccounted / wall : 1.0;
  r.ok = wall > 0.0 && r.unaccounted_frac <= tolerance;
  return r;
}

/// Open-loop send times in [0, horizon_s): a Poisson process of the given
/// rate conditioned on its expected count, i.e. round(rate * horizon)
/// uniform arrival times, sorted. Conditioning keeps the offered load
/// identical across seeds while the gaps stay exponential.
inline std::vector<double> PoissonSchedule(double rate_per_s,
                                           double horizon_s,
                                           uint64_t seed) {
  const long count = std::lround(rate_per_s * horizon_s);
  std::vector<double> times;
  if (count <= 0 || !(horizon_s > 0.0)) return times;
  times.reserve(static_cast<size_t>(count));
  lkpdpp::Rng rng(seed);
  for (long i = 0; i < count; ++i) times.push_back(rng.Uniform() * horizon_s);
  std::sort(times.begin(), times.end());
  return times;
}

}  // namespace lkpbench

#endif  // LKPBENCH_STATS_H_
