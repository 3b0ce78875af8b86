// Low-rank dual vs primal k-DPP construction benchmark.
//
// Sweeps serving-pool shapes n x d (pool size x factor rank) and times
// building the sampling-ready KDpp both ways: primal (materialize
// L = V V^T, O(n^3) eigendecomposition + ESP table) and dual
// (KDpp::CreateDual through the d x d kernel C = V^T V, O(n d^2 + d^3)).
// Standalone (no Google Benchmark) so it always builds and can feed
// bench/record_baseline.sh.
//
// Wall times are machine-dependent shape references; the agreement
// columns are machine-independent and gate the dual path's exactness:
// relative log-normalizer difference and max relative marginal-diagonal
// difference must stay ~1e-10 or better, and 10 shared-seed draws must
// return identical subsets from both representations. Any violation
// prints AGREEMENT VIOLATION and exits non-zero.
//
// LKP_DUAL_MAX_N trims the sweep (e.g. LKP_DUAL_MAX_N=1024 for a quick
// run); the full sweep's n=4096 primal eigendecomposition takes minutes
// by design — that cost is the benchmark's whole point.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/kdpp.h"
#include "linalg/low_rank.h"
#include "linalg/matrix.h"

namespace lkpdpp::bench {
namespace {

Matrix RandomFactor(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix v(n, d);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < d; ++c) v(r, c) = rng.Normal() * scale;
  }
  return v;
}

// Times `build` best-of-`reps` and hands the final rep's object back
// through `last`, so the agreement checks below reuse it instead of
// paying another O(n^3) construction (at n=4096 a primal build is
// minutes — rebuilding it once more would double the sweep).
template <typename Build, typename T>
double BestOfMillis(const Build& build, int reps, T* last) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    auto made = build();
    best = std::min(best, sw.ElapsedMillis());
    made.status().CheckOK();
    if (r == reps - 1) *last = std::move(made).ValueOrDie();
  }
  return best;
}

int Run() {
  const char* max_n_env = std::getenv("LKP_DUAL_MAX_N");
  const int max_n = max_n_env != nullptr ? std::atoi(max_n_env) : 4096;
  const int k = 10;

  std::printf("low-rank dual vs primal k-DPP construction (k=%d)\n", k);
  std::printf("primal: materialize V V^T + KDpp::Create (O(n^3) eigen)\n");
  std::printf("dual:   KDpp::CreateDual via C = V^T V (O(n d^2 + d^3))\n\n");
  std::printf("%6s %5s %6s %12s %12s %9s %11s %11s %8s\n", "n", "d", "reps",
              "primal_ms", "dual_ms", "speedup", "dlogz_rel", "dmarg_rel",
              "streams");

  bool agree = true;
  int shapes_run = 0;
  for (int n : {256, 1024, 4096}) {
    if (n > max_n) {
      std::printf("(n=%d skipped: LKP_DUAL_MAX_N=%d)\n", n, max_n);
      continue;
    }
    for (int d : {16, 64}) {
      const Matrix v = RandomFactor(n, d, 9000 + n + d);
      auto factor = LowRankFactor::Create(v);
      factor.status().CheckOK();

      // n=4096 primal is an O(n^3) eigendecomposition: one rep is
      // minutes of work, which is exactly the cost being measured.
      const int reps = n <= 1024 ? 3 : 1;
      std::optional<KDpp> primal;
      std::optional<KDpp> dual;
      const double primal_ms = BestOfMillis(
          [&] { return KDpp::Create(factor->Materialize(), k); }, reps,
          &primal);
      const double dual_ms = BestOfMillis(
          [&] { return KDpp::CreateDual(*factor, k); }, reps, &dual);

      const double lz_p = primal->LogNormalizer();
      const double dlogz = std::fabs(lz_p - dual->LogNormalizer()) /
                           std::max(1.0, std::fabs(lz_p));

      const Vector diag_p = primal->MarginalDiagonal();
      const Vector diag_d = dual->MarginalDiagonal();
      double dmarg = 0.0;
      for (int i = 0; i < n; ++i) {
        dmarg = std::max(dmarg, std::fabs(diag_p[i] - diag_d[i]) /
                                    std::max(1e-12, std::fabs(diag_p[i])));
      }

      // Shared Rng::Fork discipline: the streams must be identical
      // subset-for-subset, not just equidistributed.
      int equal_draws = 0;
      const int draws = 10;
      Rng master_p(77);
      Rng master_d(77);
      for (int t = 0; t < draws; ++t) {
        Rng fork_p = master_p.Fork();
        Rng fork_d = master_d.Fork();
        auto sp = primal->Sample(&fork_p);
        auto sd = dual->Sample(&fork_d);
        sp.status().CheckOK();
        sd.status().CheckOK();
        if (*sp == *sd) ++equal_draws;
      }

      const bool row_ok =
          dlogz <= 1e-10 && dmarg <= 1e-8 && equal_draws == draws;
      if (!row_ok) agree = false;
      ++shapes_run;
      std::printf("%6d %5d %6d %12.2f %12.3f %8.1fx %11.2e %11.2e %5d/%d\n",
                  n, d, reps, primal_ms, dual_ms, primal_ms / dual_ms,
                  dlogz, dmarg, equal_draws, draws);
    }
  }

  if (shapes_run == 0) {
    // Success here would record a green exactness verdict backed by
    // zero measurements.
    std::printf("\nAGREEMENT UNVERIFIED: LKP_DUAL_MAX_N=%d trimmed every "
                "shape\n", max_n);
    return 1;
  }
  if (!agree) {
    std::printf("\nAGREEMENT VIOLATION: dual and primal k-DPPs disagree\n");
    return 1;
  }
  std::printf("\ndual and primal agree on every shape (normalizers, "
              "marginals, and bit-identical sample streams)\n");
  return 0;
}

}  // namespace
}  // namespace lkpdpp::bench

int main() { return lkpdpp::bench::Run(); }
