// Standard (unconstrained-cardinality) DPP over a small ground set.
//
// The paper conditions on cardinality (k-DPP, kdpp.h) precisely because
// the standard DPP's variable-size competition muddles ranking signals
// (Section III-B1). The standard DPP is still the foundational object:
//   P(S) = det(L_S) / det(L + I)              (paper Eq. 1)
// and this class provides it for comparison experiments, the MAP
// re-ranking extension (map_inference.h), and tests that contrast the
// two normalizations.

#ifndef LKPDPP_CORE_DPP_H_
#define LKPDPP_CORE_DPP_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "linalg/low_rank.h"
#include "linalg/matrix.h"
#include "linalg/spectrum.h"

namespace lkpdpp {

/// An exact standard DPP with PSD kernel L over {0..m-1}.
///
/// Two representations share this type, both held as a KernelSpectrum
/// (linalg/spectrum.h). The primal one (Create) eigendecomposes the n x n
/// kernel. The dual one (CreateDual) holds a rank-d factor V with
/// L = V V^T plus the d x d dual eigendecomposition, and never
/// materializes L (Gartrell et al. 2016). Both define the same
/// distribution, and for a fixed seed Sample draws the same subsets
/// either way: the sampler spends one Rng draw per eigenvalue of L,
/// including the (n - d) zeros a dual spectrum leaves implicit, so
/// swapping representations cannot re-randomize a stream.
class Dpp {
 public:
  /// Fails on non-square/non-symmetric/indefinite kernels (round-off
  /// negatives are clamped).
  static Result<Dpp> Create(Matrix kernel);

  /// Builds the DPP with kernel L = V V^T from its factor, at
  /// O(n d^2 + d^3) instead of O(n^3). Same PSD clamp as Create, applied
  /// at primal ground size, so rank detection is representation-
  /// independent.
  static Result<Dpp> CreateDual(LowRankFactor factor);

  int ground_size() const { return spectrum_.ground_size(); }
  bool is_dual() const { return spectrum_.is_dual(); }

  /// Primal mode: all n eigenvalues of L, ascending. Dual mode: the d
  /// eigenvalues of the dual kernel C = V^T V, ascending — L's spectrum
  /// is these plus (n - d) implicit zeros.
  const Vector& eigenvalues() const { return spectrum_.eigenvalues(); }

  /// log det(L + I): the normalizer over all 2^m subsets.
  double LogNormalizer() const { return log_z_; }

  /// log P(S) for any subset, including the empty set (det of an empty
  /// matrix is 1). Fails on duplicates/out-of-range.
  Result<double> LogProb(const std::vector<int>& subset) const;
  Result<double> Prob(const std::vector<int>& subset) const;

  /// Marginal kernel M = L (L + I)^{-1}; M_ii = P(i in S). Dual mode
  /// assembles it from lifted eigenvectors at O(n^2 r) — prefer
  /// MarginalDiagonal when only inclusion probabilities are needed.
  Matrix MarginalKernel() const;

  /// diag(M) without materializing M: P(i in S) for every item.
  Vector MarginalDiagonal() const;

  /// Expected sample cardinality: sum_i lambda_i / (1 + lambda_i).
  double ExpectedSize() const;

  /// Exact sample (Hough et al. / Kulesza & Taskar Alg. 1): choose each
  /// eigenvector independently with probability lambda/(1+lambda), then
  /// sample the induced elementary DPP. Returned indices ascend.
  Result<std::vector<int>> Sample(Rng* rng) const;

 private:
  explicit Dpp(KernelSpectrum spectrum);

  /// Per-column marginal weight lambda / (1 + lambda).
  Vector MarginalWeights() const;

  KernelSpectrum spectrum_;
  double log_z_;
};

/// Samples the elementary DPP spanned by the given orthonormal columns
/// (selects exactly `basis.cols()` items). Shared by Dpp and KDpp.
/// `basis` is consumed. Fails with NumericalError on basis collapse or
/// when the residual selection weights over unchosen items vanish (the
/// sampler never emits a duplicate index).
Result<std::vector<int>> SampleElementaryDpp(Matrix basis, Rng* rng);

}  // namespace lkpdpp

#endif  // LKPDPP_CORE_DPP_H_
