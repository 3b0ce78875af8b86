// Nystrom-style low-rank approximation via deterministic pivoted Cholesky.
//
// Serving with a trainable Gaussian kernel (the paper's PSE/NPSE "E"
// variants) has no pre-learned factor V to hand the thin serving paths
// (dual sampling, factor-backed MAP): the kernel exists only as entries
// K_ij = k(e_i, e_j). This module builds an explicit rank-r factor F
// with K ~= F F^T by greedy pivoted Cholesky — the classic Nystrom
// landmark scheme where landmarks are chosen one at a time to maximize
// the residual diagonal — and reports *computed, not asymptotic* error
// bounds:
//
//   trace(K - F F^T)  =  sum of the residual diagonal after r pivots
//   |K_ij - (F F^T)_ij|  <=  sqrt(r_i r_j)  <=  max_i r_i
//
// Both are exact identities of the partial Cholesky factorization (the
// residual is a PSD Schur complement, so its entries are bounded by the
// geometric mean of its diagonal). Serving code compares the entry bound
// against an explicit opt-in budget before trusting the factor; the
// exact kernel stays available as the differential oracle.
//
// The pivot rule is deterministic (max residual diagonal, lowest index on
// ties), so identical inputs produce bit-identical factors on any thread
// count.

#ifndef LKPDPP_KERNELS_NYSTROM_H_
#define LKPDPP_KERNELS_NYSTROM_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// A rank-r factorization K ~= factor * factor^T with computed error
/// bounds. `factor` is n x r with r <= max_rank (fewer columns when the
/// residual trace hits `tolerance` early).
struct NystromApproximation {
  Matrix factor;
  /// trace(K - F F^T), exactly (sum of the final residual diagonal).
  double trace_error_bound = 0.0;
  /// max_ij |K_ij - (F F^T)_ij| <= max residual diagonal entry.
  double entry_error_bound = 0.0;
  /// Landmark indices in pivot order.
  std::vector<int> pivots;
};

/// Pivoted-Cholesky approximation of the PSD kernel defined by
/// `entry_fn(i, j)` over {0..n-1}. Evaluates O(n * r) kernel entries
/// (one column per pivot) plus the n-entry diagonal; never forms the
/// n x n kernel. Stops after `max_rank` pivots or once the residual
/// trace drops to `tolerance` (absolute), whichever comes first.
/// Fails on non-finite entries or a residual diagonal that goes
/// significantly negative (entry_fn not PSD).
Result<NystromApproximation> PivotedCholeskyApproximation(
    int n, int max_rank, double tolerance,
    const std::function<double(int, int)>& entry_fn);

/// Convenience wrapper: approximates the Gaussian kernel
/// K_ab = exp(-||e_pool[a] - e_pool[b]||^2 / (2 sigma^2)) restricted to
/// the rows of `embeddings` named by `pool`. Row a of the returned factor
/// corresponds to pool[a].
Result<NystromApproximation> GaussianNystrom(const Matrix& embeddings,
                                             const std::vector<int>& pool,
                                             double sigma, int max_rank,
                                             double tolerance);

}  // namespace lkpdpp

#endif  // LKPDPP_KERNELS_NYSTROM_H_
