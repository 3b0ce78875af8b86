// The spectrum of a PSD DPP kernel, held primally or through its dual.
//
// Exact DPP and k-DPP computations read the kernel L through four
// spectral questions: its eigenvalues, some of its eigenvectors, the
// determinant of a principal submatrix, and eigenvector sums weighted
// per column (marginals, gradients). KernelSpectrum answers them for two
// representations of the same L:
//
//   primal (FromKernel) — the n x n kernel and its full
//       eigendecomposition, O(n^3) to build;
//   dual   (FromFactor) — a rank-d factor V with L = V V^T and the
//       eigendecomposition of the d x d dual kernel C = V^T V
//       (Gartrell et al. 2016), O(n d^2 + d^3) to build; L is never
//       materialized, and eigenvectors are lifted from C's on demand.
//
// Both apply the same PSD clamp at primal ground size
// (ClampSpectrumToPsd), so the detected rank does not depend on the
// representation. A dual spectrum stores only d eigenvalues: L's full
// spectrum is those plus (n - d) implicit zeros, which normalizers,
// samplers and marginals weight by zero. Dpp and KDpp are written once
// against this class.

#ifndef LKPDPP_LINALG_SPECTRUM_H_
#define LKPDPP_LINALG_SPECTRUM_H_

#include <vector>

#include "common/result.h"
#include "linalg/eigen.h"
#include "linalg/low_rank.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// Eigendecomposed PSD kernel L over a ground set {0..n-1}. Immutable
/// once built; concurrent reads are safe.
class KernelSpectrum {
 public:
  /// Primal: eigendecomposes the kernel. Fails on non-square input
  /// (InvalidArgument), non-finite entries or an indefinite spectrum
  /// (NumericalError); round-off negatives are clamped to zero.
  static Result<KernelSpectrum> FromKernel(Matrix kernel);

  /// Dual: eigendecomposes C = V^T V of the factor, without
  /// materializing L. Fails on an empty factor.
  static Result<KernelSpectrum> FromFactor(LowRankFactor factor);

  /// Ground-set size n.
  int ground_size() const { return ground_size_; }
  bool is_dual() const { return dual_; }

  /// Ascending eigenvalues: all n of L (primal), or the d of C (dual).
  const Vector& eigenvalues() const { return eig_.eigenvalues; }
  /// Unit eigenvectors matching eigenvalues(), one per column: of L
  /// (primal, n x n) or of C (dual, d x d).
  const Matrix& eigenvectors() const { return eig_.eigenvectors; }

  /// Eigenvectors of L for the given eigenvalue columns (n x |cols|, in
  /// `cols` order): copied in primal mode, lifted from C's in dual mode.
  /// Dual columns must have strictly positive eigenvalues.
  Matrix EigenvectorColumns(const std::vector<int>& cols) const;

  /// log det(L_S) for a subset of distinct indices in any order (the
  /// empty set gives 0, a singular L_S gives -inf). Fails with
  /// OutOfRange / InvalidArgument on out-of-range / duplicate indices.
  Result<double> SubsetLogDet(const std::vector<int>& subset) const;

  /// sum_{c : w[c] > 0} w[c] u_c u_c^T (n x n, symmetrized), with one
  /// weight per eigenvalues() column; non-positive weights are skipped.
  /// In dual mode every positive weight needs a positive eigenvalue
  /// (EigenvectorColumns), so sums that weight L's null space are
  /// primal-only.
  Matrix WeightedOuter(const Vector& w) const;

  /// diag(WeightedOuter(w)) without materializing it: O(n r) for r
  /// positive weights.
  Vector WeightedDiagonal(const Vector& w) const;

 private:
  KernelSpectrum(Matrix kernel, LowRankFactor factor, bool dual,
                 EigenDecomposition eig);

  Matrix kernel_;         // Primal mode only.
  LowRankFactor factor_;  // Dual mode only.
  bool dual_;
  int ground_size_;
  EigenDecomposition eig_;
};

}  // namespace lkpdpp

#endif  // LKPDPP_LINALG_SPECTRUM_H_
