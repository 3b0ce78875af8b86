// Tests of the benchmark's own arithmetic (stats.h). run.py runs this
// binary before every benchmark run and refuses to report on failure.
//
//   .bench_build/lkpbench_stats_test

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void TestNearestRankPercentiles() {
  using lkpbench::Distribution;
  const Distribution hundred(OneTo(100));
  EXPECT(hundred.Percentile(0.50) == 50);
  EXPECT(hundred.Percentile(0.99) == 99);
  EXPECT(hundred.Percentile(1.00) == 100);
  EXPECT(hundred.Percentile(0.0) == 1);
  const Distribution one({7.5});
  EXPECT(one.Percentile(0.5) == 7.5);
  EXPECT(one.Percentile(0.99) == 7.5);
  EXPECT(Distribution().Percentile(0.5) == 0.0);
  // ceil(q * n) without floating-point drift: 0.29 * 100 is 28.999...
  EXPECT(lkpbench::NearestRank(100, 0.29) == 29);
  EXPECT(lkpbench::NearestRank(3, 0.5) == 2);
  EXPECT(lkpbench::NearestRank(4, 0.5) == 2);
  EXPECT(lkpbench::NearestRank(0, 0.5) == 0);
}

void TestPercentileSupport() {
  using lkpbench::PercentileSupported;
  // p99 of 1000 sits at rank 990: exactly ten samples beyond it.
  EXPECT(PercentileSupported(1000, 0.99));
  EXPECT(!PercentileSupported(999, 0.99));
  // p50 needs twenty samples.
  EXPECT(PercentileSupported(20, 0.50));
  EXPECT(!PercentileSupported(19, 0.50));
  EXPECT(!PercentileSupported(0, 0.50));
}

void TestWindowMedians() {
  // Ten 1-s windows with 100 completions each; latencies 1..100 ms in
  // every window except window 3, a stall where everything took 500 ms.
  std::vector<lkpbench::Window> windows(10);
  for (int w = 0; w < 10; ++w) {
    windows[w].seconds = 1.0;
    for (int i = 1; i <= 100; ++i) {
      windows[w].latency_ms.push_back(w == 3 ? 500.0 : i);
    }
  }
  const lkpbench::WindowedSummary s = lkpbench::SummarizeWindows(windows);
  EXPECT(Near(s.rate_per_s, 100.0));
  EXPECT(s.p50 == 50);
  EXPECT(s.p99 == 99);
  EXPECT(Near(lkpbench::MedianOf({3, 1, 2, 10}), 2.5));
  EXPECT(lkpbench::SummarizeWindows({}).p50 == 0.0);
}

void TestWindowSpeedRescaling() {
  // The same work measured at reference speed and on a machine running
  // twice as slow (half the completions, doubled latencies) summarizes
  // to the same numbers once each window carries its slowdown.
  lkpbench::Window fast;
  lkpbench::Window slow;
  for (int i = 1; i <= 100; ++i) fast.latency_ms.push_back(i);
  for (int i = 1; i <= 50; ++i) slow.latency_ms.push_back(4.0 * i);
  fast.seconds = slow.seconds = 1.0;
  slow.slowdown = 2.0;
  const lkpbench::WindowedSummary a =
      lkpbench::SummarizeWindows({fast, fast, fast});
  const lkpbench::WindowedSummary b =
      lkpbench::SummarizeWindows({slow, slow, slow});
  EXPECT(Near(a.rate_per_s, b.rate_per_s));
  EXPECT(Near(a.p50, b.p50));
  EXPECT(Near(a.p99, 99) && Near(b.p99, 100));  // Rank 50 of 50: 4 * 50 / 2.
}

// Self time of a parent span whose children run in parallel on other
// threads: the parent's duration minus the union of its children.
double ParentSelfTime(lkpbench::Interval parent,
                      const std::vector<lkpbench::Interval>& children) {
  std::vector<lkpbench::LayerInterval> spans = {{parent, 0, 0}};
  for (const lkpbench::Interval& c : children) spans.push_back({c, 1, 1});
  double uncovered = 0;
  return lkpbench::AttributeWall(spans, parent, 2, &uncovered)[0];
}

void TestSelfTimeWithParallelChildren() {
  // Two children overlap on [3, 5]: the parent is covered on [1, 8], so
  // its self time is 10 - 7, not 10 - 4 - 5.
  EXPECT(Near(ParentSelfTime({0, 10}, {{1, 5}, {3, 8}}), 3));
  EXPECT(Near(ParentSelfTime({0, 10}, {{2, 4}, {2, 4}, {2, 4}}), 8));
  EXPECT(Near(ParentSelfTime({0, 10}, {{1, 2}, {4, 6}}), 7));
  // Children are clipped to the parent.
  EXPECT(Near(ParentSelfTime({0, 10}, {{-5, 1}, {9, 20}}), 8));
  EXPECT(Near(ParentSelfTime({0, 10}, {}), 10));
}

void TestWallAttribution() {
  using lkpbench::LayerInterval;
  // bench root [0, 10] (depth 0), a batch [1, 9] (depth 2) and two
  // parallel scoring spans [2, 5] and [4, 7] (depth 3).
  const std::vector<LayerInterval> spans = {
      {{0, 10}, 0, 0}, {{1, 9}, 1, 2}, {{2, 5}, 2, 3}, {{4, 7}, 2, 3}};
  double uncovered = -1;
  const std::vector<double> share =
      lkpbench::AttributeWall(spans, {0, 10}, 3, &uncovered);
  EXPECT(Near(share[0], 2));  // Root self time.
  EXPECT(Near(share[1], 3));  // Batch self time: 8 - union(children) 5.
  EXPECT(Near(share[2], 5));  // The union of the parallel children.
  EXPECT(Near(uncovered, 0));
  EXPECT(Near(share[0] + share[1] + share[2] + uncovered, 10));
  // Two layers of equal depth active together split the overlap.
  const std::vector<double> tie = lkpbench::AttributeWall(
      {{{0, 2}, 0, 1}, {{1, 3}, 1, 1}}, {0, 4}, 2, &uncovered);
  EXPECT(Near(tie[0], 1.5));
  EXPECT(Near(tie[1], 1.5));
  EXPECT(Near(uncovered, 1));
}

void TestReconciliationTolerance() {
  using lkpbench::Reconcile;
  EXPECT(Reconcile(100, 4.9, 0.05).ok);
  EXPECT(Reconcile(100, 5.0, 0.05).ok);
  EXPECT(!Reconcile(100, 5.1, 0.05).ok);
  EXPECT(Near(Reconcile(200, 5, 0.05).unaccounted_frac, 0.025));
  EXPECT(!Reconcile(0, 0, 0.05).ok);  // No wall time: nothing reconciles.
}

void TestPoissonSchedule() {
  const double rate = 200.0;
  const double horizon = 50.0;
  const std::vector<double> a = lkpbench::PoissonSchedule(rate, horizon, 7);
  const std::vector<double> b = lkpbench::PoissonSchedule(rate, horizon, 7);
  const std::vector<double> c = lkpbench::PoissonSchedule(rate, horizon, 8);
  EXPECT(a == b);  // Same seed, same schedule.
  EXPECT(a != c);
  EXPECT(a.size() == 10000);  // Conditioned on the expected count.
  bool sorted_in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < 0.0 || a[i] >= horizon) sorted_in_range = false;
    if (i > 0 && a[i] < a[i - 1]) sorted_in_range = false;
  }
  EXPECT(sorted_in_range);
  // Exponential gaps: mean 1/rate and coefficient of variation 1.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t i = 1; i < a.size(); ++i) {
    const double gap = a[i] - a[i - 1];
    sum += gap;
    sum_sq += gap * gap;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sum_sq / n - mean * mean) / mean;
  EXPECT(std::fabs(mean - 1.0 / rate) < 0.03 / rate);
  EXPECT(std::fabs(cv - 1.0) < 0.05);
  // Arrivals per second look Poisson: variance close to the mean.
  std::vector<double> per_second(static_cast<size_t>(horizon), 0.0);
  for (double t : a) per_second[static_cast<size_t>(t)] += 1.0;
  double var = 0.0;
  for (double k : per_second) var += (k - rate) * (k - rate);
  var /= horizon;
  EXPECT(var > 0.5 * rate && var < 1.5 * rate);
  EXPECT(lkpbench::PoissonSchedule(rate, 0.0, 7).empty());
}

}  // namespace

int main() {
  TestNearestRankPercentiles();
  TestPercentileSupport();
  TestWindowMedians();
  TestWindowSpeedRescaling();
  TestSelfTimeWithParallelChildren();
  TestWallAttribution();
  TestReconciliationTolerance();
  TestPoissonSchedule();
  if (g_failures > 0) {
    std::printf("lkpbench_stats_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("lkpbench_stats_test: all passed\n");
  return 0;
}
