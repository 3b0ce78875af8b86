// Shared fixtures for the test suites: deterministic random kernels and
// matrices. Previously each suite carried its own copy of these helpers;
// keep semantics here stable, several suites pin seeds against them.

#ifndef LKPDPP_TESTS_TESTING_UTIL_H_
#define LKPDPP_TESTS_TESTING_UTIL_H_

#include <cmath>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"

namespace lkpdpp {
namespace testutil {

/// Tasks submitted to any ThreadPool so far (lkp_pool_tasks_total): a
/// ParallelFor that splits hands min(workers, chunks - 1) helpers.
inline long PoolTasks() {
  return obs::MetricsRegistry::Global()
      .GetCounter("lkp_pool_tasks_total")
      ->Value();
}

/// Dense matrix with iid standard-normal entries, filled row-major.
inline Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m(r, c) = rng->Normal();
  }
  return m;
}

/// Random PSD kernel V V^T / rank + ridge * I over n items. `rank` defaults
/// to n (full rank); choose rank > n for better conditioning or rank < n
/// for a genuinely rank-deficient kernel (with ridge = 0).
inline Matrix RandomPsdKernel(int n, Rng* rng, int rank = -1,
                              double ridge = 0.05) {
  if (rank < 0) rank = n;
  Matrix v = RandomMatrix(n, rank, rng);
  Matrix k = MatMulTransB(v, v);
  k *= 1.0 / rank;
  k.AddDiagonal(ridge);
  return k;
}

/// Random symmetric positive-definite matrix A A^T + ridge * I (unscaled;
/// entries grow with n). Suited to decomposition tests that want a
/// well-conditioned SPD input rather than a kernel-scaled one.
inline Matrix RandomSpd(int n, Rng* rng, double ridge = 0.5) {
  Matrix a = RandomMatrix(n, n, rng);
  Matrix spd = MatMulTransB(a, a);
  spd.AddDiagonal(ridge);
  return spd;
}

/// Unit-diagonal correlation-like PSD kernel of full rank: rows of a
/// random n x (n+2) factor are normalized to unit length before forming
/// V V^T, so every diagonal entry is exactly 1.
inline Matrix RandomCorrelationKernel(int n, Rng* rng) {
  Matrix v = RandomMatrix(n, n + 2, rng);
  for (int r = 0; r < n; ++r) {
    double norm = 0.0;
    for (int c = 0; c < n + 2; ++c) norm += v(r, c) * v(r, c);
    norm = std::sqrt(norm);
    for (int c = 0; c < n + 2; ++c) v(r, c) /= norm;
  }
  return MatMulTransB(v, v);
}

}  // namespace testutil
}  // namespace lkpdpp

#endif  // LKPDPP_TESTS_TESTING_UTIL_H_
