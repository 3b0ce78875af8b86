#include "linalg/kernel_rep.h"

#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace lkpdpp {

PrimalKernelRep::PrimalKernelRep(Matrix kernel) : owned_(std::move(kernel)) {
  LKP_CHECK_EQ(owned_.rows(), owned_.cols());
  matrix_ = &owned_;
}

PrimalKernelRep PrimalKernelRep::View(const Matrix& kernel) {
  LKP_CHECK_EQ(kernel.rows(), kernel.cols());
  PrimalKernelRep rep;
  rep.matrix_ = &kernel;
  return rep;
}

void PrimalKernelRep::FillDiag(double* out) const {
  const int n = matrix_->rows();
  for (int i = 0; i < n; ++i) out[i] = (*matrix_)(i, i);
}

void PrimalKernelRep::FillRow(int j, double* out) const {
  const int n = matrix_->rows();
  const double* row = matrix_->RowPtr(j);
  for (int i = 0; i < n; ++i) out[i] = row[i];
}

double PrimalKernelRep::Entry(int i, int j) const { return (*matrix_)(i, j); }

Result<FactorDiagKernelRep> FactorDiagKernelRep::Create(Matrix v,
                                                        Vector scale,
                                                        double alpha,
                                                        double delta) {
  if (scale.size() != v.rows()) {
    return Status::InvalidArgument(
        StrFormat("scale length %d does not match factor rows %d",
                  scale.size(), v.rows()));
  }
  if (!(alpha >= 0.0) || !std::isfinite(alpha) || !(delta >= 0.0) ||
      !std::isfinite(delta)) {
    return Status::InvalidArgument(
        StrFormat("alpha=%.3g delta=%.3g must be finite and >= 0 to keep "
                  "the kernel PSD",
                  alpha, delta));
  }
  if (!scale.AllFinite()) {
    return Status::NumericalError("kernel rep scale has non-finite entries");
  }
  LKP_ASSIGN_OR_RETURN(LowRankFactor factor, LowRankFactor::Create(std::move(v)));
  return FactorDiagKernelRep(std::move(factor), std::move(scale), alpha,
                             delta);
}

// Entry arithmetic note: the three expressions below must stay in
// lockstep with the primal materialization pipeline (RowDots's
// ascending-column dot == DiversityKernel::Entry / naive-order GEMM,
// `dot * alpha` == Matrix::operator*=, `+ delta` == Matrix::AddDiagonal,
// and the left-to-right (s_row * t) * s_col == AssembleKernel's
// q_i * k * q_j with i the row index). Reordering any of them breaks
// the bit-exactness contract in the header.

void FactorDiagKernelRep::FillDiag(double* out) const {
  const int n = size();
  factor_.SquaredRowNorms(out);
  for (int i = 0; i < n; ++i) {
    double t = out[i] * alpha_;
    t += delta_;
    out[i] = (scale_[i] * t) * scale_[i];
  }
}

void FactorDiagKernelRep::FillRow(int j, double* out) const {
  const int n = size();
  factor_.RowDots(j, out);
  const double sj = scale_[j];
  for (int i = 0; i < n; ++i) {
    double t = out[i] * alpha_;
    if (i == j) t += delta_;
    out[i] = (sj * t) * scale_[i];
  }
}

double FactorDiagKernelRep::Entry(int i, int j) const {
  double t = factor_.RowDot(i, j) * alpha_;
  if (i == j) t += delta_;
  return (scale_[i] * t) * scale_[j];
}

Result<DiagKernelRep> DiagKernelRep::Create(Vector scale, double delta) {
  if (scale.size() < 1) {
    return Status::InvalidArgument("diag kernel rep needs >= 1 row");
  }
  if (!(delta >= 0.0) || !std::isfinite(delta)) {
    return Status::InvalidArgument(
        StrFormat("delta=%.3g must be finite and >= 0 to keep the kernel "
                  "PSD",
                  delta));
  }
  if (!scale.AllFinite()) {
    return Status::NumericalError("kernel rep scale has non-finite entries");
  }
  return DiagKernelRep(std::move(scale), delta);
}

// The (s_i * delta) * s_i grouping mirrors AssembleKernel's
// q_i * blended * q_j (left-to-right) with blended == ±0 + delta ==
// delta; see the class comment for why this is bit-exact vs primal.

void DiagKernelRep::FillDiag(double* out) const {
  const int n = size();
  for (int i = 0; i < n; ++i) out[i] = (scale_[i] * delta_) * scale_[i];
}

void DiagKernelRep::FillRow(int j, double* out) const {
  const int n = size();
  for (int i = 0; i < n; ++i) out[i] = 0.0;
  out[j] = (scale_[j] * delta_) * scale_[j];
}

double DiagKernelRep::Entry(int i, int j) const {
  if (i != j) return 0.0;
  return (scale_[i] * delta_) * scale_[i];
}

}  // namespace lkpdpp
