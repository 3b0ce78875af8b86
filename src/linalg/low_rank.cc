#include "linalg/low_rank.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace lkpdpp {

Result<LowRankFactor> LowRankFactor::Create(Matrix v) {
  if (v.rows() < 1 || v.cols() < 1) {
    return Status::InvalidArgument(
        StrFormat("low-rank factor must be non-empty, got %dx%d", v.rows(),
                  v.cols()));
  }
  if (!v.AllFinite()) {
    return Status::NumericalError(
        "low-rank factor contains non-finite values");
  }
  return LowRankFactor(std::move(v));
}

Matrix LowRankFactor::Gram() const {
  Matrix c = MatMulTransA(v_, v_);
  c.Symmetrize();
  return c;
}

Matrix LowRankFactor::Materialize() const {
  Matrix l = MatMulTransB(v_, v_);
  l.Symmetrize();
  return l;
}

Matrix LowRankFactor::SubsetGram(const std::vector<int>& rows) const {
  return SelectRows(rows).Materialize();
}

LowRankFactor LowRankFactor::SelectRows(const std::vector<int>& rows) const {
  const int s = static_cast<int>(rows.size());
  const int d = v_.cols();
  Matrix out(s, d);
  for (int i = 0; i < s; ++i) {
    LKP_CHECK(rows[static_cast<size_t>(i)] >= 0 &&
              rows[static_cast<size_t>(i)] < v_.rows())
        << "row " << rows[static_cast<size_t>(i)] << " outside factor of "
        << v_.rows() << " rows";
    for (int c = 0; c < d; ++c) {
      out(i, c) = v_(rows[static_cast<size_t>(i)], c);
    }
  }
  return LowRankFactor(std::move(out));
}

LowRankFactor LowRankFactor::ScaleRows(const Vector& scale) const {
  LKP_CHECK_EQ(scale.size(), v_.rows());
  Matrix out = v_;
  for (int r = 0; r < out.rows(); ++r) {
    const double s = scale[r];
    for (int c = 0; c < out.cols(); ++c) out(r, c) *= s;
  }
  return LowRankFactor(std::move(out));
}

double LowRankFactor::RowDot(int i, int j) const {
  const int d = v_.cols();
  const double* ri = v_.RowPtr(i);
  const double* rj = v_.RowPtr(j);
  double s = 0.0;
  for (int c = 0; c < d; ++c) s += ri[c] * rj[c];
  return s;
}

void LowRankFactor::RowDots(int j, double* out) const {
  const int n = v_.rows();
  const int d = v_.cols();
  LKP_CHECK(j >= 0 && j < n) << "row " << j << " outside factor of " << n
                             << " rows";
  const double* rj = v_.RowPtr(j);
  for (int i = 0; i < n; ++i) {
    const double* ri = v_.RowPtr(i);
    double s = 0.0;
    for (int c = 0; c < d; ++c) s += ri[c] * rj[c];
    out[i] = s;
  }
}

void LowRankFactor::SquaredRowNorms(double* out) const {
  const int n = v_.rows();
  const int d = v_.cols();
  for (int i = 0; i < n; ++i) {
    const double* ri = v_.RowPtr(i);
    double s = 0.0;
    for (int c = 0; c < d; ++c) s += ri[c] * ri[c];
    out[i] = s;
  }
}

Result<DualEigen> LowRankFactor::EigenDual() const {
  LKP_ASSIGN_OR_RETURN(EigenDecomposition eig, SymmetricEigen(Gram()));
  // The clamp threshold uses the PRIMAL ground size n, not d: the
  // spectrum stands in for an n x n operator, and rank detection must
  // not depend on which representation computed it.
  LKP_RETURN_IF_ERROR(ClampSpectrumToPsd(&eig.eigenvalues, ground_size()));
  DualEigen out;
  out.eigenvalues = std::move(eig.eigenvalues);
  out.dual_vectors = std::move(eig.eigenvectors);
  return out;
}

Matrix LowRankFactor::LiftEigenvectors(const Vector& eigenvalues,
                                       const Matrix& dual_vectors,
                                       const std::vector<int>& cols) const {
  const int n = v_.rows();
  const int d = v_.cols();
  LKP_CHECK_EQ(eigenvalues.size(), d);
  const int m = static_cast<int>(cols.size());
  // Gather the selected dual vectors scaled by 1/sqrt(lambda), then one
  // n x d x m product lifts them all: U = V * (W_sel / sqrt(lambda)).
  Matrix w(d, m);
  for (int c = 0; c < m; ++c) {
    const int j = cols[static_cast<size_t>(c)];
    LKP_CHECK(j >= 0 && j < d) << "dual eigenvector index " << j
                               << " outside rank bound " << d;
    const double lam = eigenvalues[j];
    LKP_CHECK(lam > 0.0)
        << "cannot lift dual eigenvector " << j
        << " with non-positive eigenvalue " << lam;
    const double inv_sqrt = 1.0 / std::sqrt(lam);
    for (int r = 0; r < d; ++r) w(r, c) = dual_vectors(r, j) * inv_sqrt;
  }
  Matrix lifted = MatMul(v_, w);
  LKP_CHECK_EQ(lifted.rows(), n);
  CanonicalizeColumnSigns(&lifted);
  return lifted;
}

}  // namespace lkpdpp
