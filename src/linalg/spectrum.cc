#include "linalg/spectrum.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/string_util.h"
#include "linalg/lu.h"

namespace lkpdpp {

KernelSpectrum::KernelSpectrum(Matrix kernel, LowRankFactor factor,
                               bool dual, EigenDecomposition eig)
    : kernel_(std::move(kernel)),
      factor_(std::move(factor)),
      dual_(dual),
      ground_size_(dual ? factor_.ground_size() : kernel_.rows()),
      eig_(std::move(eig)) {}

Result<KernelSpectrum> KernelSpectrum::FromKernel(Matrix kernel) {
  if (kernel.rows() != kernel.cols()) {
    return Status::InvalidArgument(
        StrFormat("DPP kernel must be square, got %dx%d", kernel.rows(),
                  kernel.cols()));
  }
  if (!kernel.AllFinite()) {
    return Status::NumericalError("DPP kernel contains non-finite values");
  }
  LKP_ASSIGN_OR_RETURN(EigenDecomposition eig, SymmetricEigen(kernel));
  // Eigenvalues within working precision of zero (either sign: exact
  // zeros of rank-deficient kernels come back as +/- O(eps * lambda_max)
  // noise) become exactly zero; genuinely indefinite kernels fail.
  LKP_RETURN_IF_ERROR(ClampSpectrumToPsd(&eig.eigenvalues, kernel.rows()));
  return KernelSpectrum(std::move(kernel), LowRankFactor(), false,
                        std::move(eig));
}

Result<KernelSpectrum> KernelSpectrum::FromFactor(LowRankFactor factor) {
  if (factor.ground_size() < 1) {
    return Status::InvalidArgument("dual DPP requires a non-empty factor");
  }
  // EigenDual applies the same clamp as FromKernel, at primal ground size.
  LKP_ASSIGN_OR_RETURN(DualEigen dual, factor.EigenDual());
  EigenDecomposition eig;
  eig.eigenvalues = std::move(dual.eigenvalues);
  eig.eigenvectors = std::move(dual.dual_vectors);
  return KernelSpectrum(Matrix(), std::move(factor), true, std::move(eig));
}

Matrix KernelSpectrum::EigenvectorColumns(const std::vector<int>& cols) const {
  if (dual_) {
    return factor_.LiftEigenvectors(eig_.eigenvalues, eig_.eigenvectors, cols);
  }
  const int r = static_cast<int>(cols.size());
  Matrix out(ground_size_, r);
  for (int i = 0; i < ground_size_; ++i) {
    for (int c = 0; c < r; ++c) {
      out(i, c) = eig_.eigenvectors(i, cols[static_cast<size_t>(c)]);
    }
  }
  return out;
}

Result<double> KernelSpectrum::SubsetLogDet(
    const std::vector<int>& subset) const {
  std::vector<int> sorted = subset;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] < 0 || sorted[i] >= ground_size_) {
      return Status::OutOfRange(
          StrFormat("subset index %d outside ground set of size %d",
                    sorted[i], ground_size_));
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument(
          StrFormat("duplicate index %d in subset", sorted[i]));
    }
  }
  if (sorted.empty()) return 0.0;  // det of an empty matrix is 1.
  // L_S from the kernel, or as the Gram of the factor's rows — the same
  // matrix, assembled without materializing L.
  const Matrix sub = dual_ ? factor_.SubsetGram(sorted)
                           : kernel_.PrincipalSubmatrix(sorted);
  LKP_ASSIGN_OR_RETURN(double det, Determinant(sub));
  // PSD principal minors are >= 0; tiny negatives are round-off.
  if (det <= 0.0) return -std::numeric_limits<double>::infinity();
  return std::log(det);
}

namespace {

std::vector<int> PositiveWeightCols(const Vector& w) {
  std::vector<int> cols;
  for (int c = 0; c < w.size(); ++c) {
    if (w[c] > 0.0) cols.push_back(c);
  }
  return cols;
}

}  // namespace

Matrix KernelSpectrum::WeightedOuter(const Vector& w) const {
  const std::vector<int> cols = PositiveWeightCols(w);
  const Matrix u = EigenvectorColumns(cols);
  Matrix scaled = u;
  for (size_t c = 0; c < cols.size(); ++c) {
    const double wc = w[cols[c]];
    for (int r = 0; r < ground_size_; ++r) {
      scaled(r, static_cast<int>(c)) *= wc;
    }
  }
  Matrix out = MatMulTransB(scaled, u);
  out.Symmetrize();
  return out;
}

Vector KernelSpectrum::WeightedDiagonal(const Vector& w) const {
  const std::vector<int> cols = PositiveWeightCols(w);
  const Matrix u = EigenvectorColumns(cols);
  Vector diag(ground_size_);
  for (int r = 0; r < ground_size_; ++r) {
    double s = 0.0;
    for (size_t c = 0; c < cols.size(); ++c) {
      const double x = u(r, static_cast<int>(c));
      s += w[cols[c]] * x * x;
    }
    diag[r] = s;
  }
  return diag;
}

}  // namespace lkpdpp
