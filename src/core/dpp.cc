#include "core/dpp.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace lkpdpp {

Result<std::vector<int>> SampleElementaryDpp(Matrix basis, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const int m = basis.rows();
  int dim = basis.cols();
  std::vector<int> items;
  items.reserve(static_cast<size_t>(dim));

  while (dim > 0) {
    std::vector<double> weights(static_cast<size_t>(m), 0.0);
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int c = 0; c < dim; ++c) s += basis(i, c) * basis(i, c);
      weights[static_cast<size_t>(i)] = s;
    }
    for (int chosen : items) weights[static_cast<size_t>(chosen)] = 0.0;
    double total = 0.0;
    for (double w : weights) total += w;
    if (!(total > 0.0)) {
      // All residual mass underflowed (or went non-finite). Categorical's
      // uniform fallback would ignore the already-chosen items and could
      // emit a duplicate index; fail loudly instead.
      return Status::NumericalError(
          "elementary DPP sampler: residual weights vanished over "
          "unchosen items");
    }
    const int item = rng->Categorical(weights);
    items.push_back(item);
    if (dim == 1) break;

    // Eliminate the e_item component using the largest pivot column,
    // drop it, then re-orthonormalize.
    int pivot = 0;
    double best = std::fabs(basis(item, 0));
    for (int c = 1; c < dim; ++c) {
      if (std::fabs(basis(item, c)) > best) {
        best = std::fabs(basis(item, c));
        pivot = c;
      }
    }
    if (best <= 0.0) {
      return Status::NumericalError(
          "elementary DPP sampler: chosen item has no support");
    }
    for (int c = 0; c < dim; ++c) {
      if (c == pivot) continue;
      const double f = basis(item, c) / basis(item, pivot);
      for (int r = 0; r < m; ++r) basis(r, c) -= f * basis(r, pivot);
    }
    if (pivot != dim - 1) {
      for (int r = 0; r < m; ++r) basis(r, pivot) = basis(r, dim - 1);
    }
    --dim;
    for (int c = 0; c < dim; ++c) {
      for (int prev = 0; prev < c; ++prev) {
        double dot = 0.0;
        for (int r = 0; r < m; ++r) dot += basis(r, c) * basis(r, prev);
        for (int r = 0; r < m; ++r) basis(r, c) -= dot * basis(r, prev);
      }
      double norm = 0.0;
      for (int r = 0; r < m; ++r) norm += basis(r, c) * basis(r, c);
      norm = std::sqrt(norm);
      if (norm <= 1e-12) {
        return Status::NumericalError(
            "elementary DPP sampler: basis collapsed");
      }
      for (int r = 0; r < m; ++r) basis(r, c) /= norm;
    }
  }
  std::sort(items.begin(), items.end());
  return items;
}

Dpp::Dpp(KernelSpectrum spectrum)
    : spectrum_(std::move(spectrum)), log_z_(0.0) {
  // log det(L + I) = sum log1p(lambda); the (n - d) eigenvalues a dual
  // spectrum leaves implicit are zeros and contribute log1p(0) = 0.
  const Vector& lambda = spectrum_.eigenvalues();
  for (int i = 0; i < lambda.size(); ++i) log_z_ += std::log1p(lambda[i]);
}

Result<Dpp> Dpp::Create(Matrix kernel) {
  LKP_ASSIGN_OR_RETURN(KernelSpectrum spectrum,
                       KernelSpectrum::FromKernel(std::move(kernel)));
  return Dpp(std::move(spectrum));
}

Result<Dpp> Dpp::CreateDual(LowRankFactor factor) {
  LKP_ASSIGN_OR_RETURN(KernelSpectrum spectrum,
                       KernelSpectrum::FromFactor(std::move(factor)));
  return Dpp(std::move(spectrum));
}

Result<double> Dpp::LogProb(const std::vector<int>& subset) const {
  LKP_ASSIGN_OR_RETURN(double log_det, spectrum_.SubsetLogDet(subset));
  return log_det - log_z_;
}

Result<double> Dpp::Prob(const std::vector<int>& subset) const {
  LKP_ASSIGN_OR_RETURN(double lp, LogProb(subset));
  return std::exp(lp);
}

// Zero exactly on zero eigenvalues, so the dual path only lifts columns
// with a positive eigenvalue.
Vector Dpp::MarginalWeights() const {
  const Vector& lambda = spectrum_.eigenvalues();
  Vector w(lambda.size());
  for (int c = 0; c < lambda.size(); ++c) {
    w[c] = lambda[c] / (1.0 + lambda[c]);
  }
  return w;
}

Matrix Dpp::MarginalKernel() const {
  return spectrum_.WeightedOuter(MarginalWeights());
}

Vector Dpp::MarginalDiagonal() const {
  return spectrum_.WeightedDiagonal(MarginalWeights());
}

double Dpp::ExpectedSize() const { return MarginalWeights().Sum(); }

Result<std::vector<int>> Dpp::Sample(Rng* rng) const {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const Vector& lambda = spectrum_.eigenvalues();
  const int m = ground_size();
  const int d = lambda.size();
  // One selection draw per eigenvalue of L, in ascending order, so both
  // representations consume the Rng draw for draw. The ascending spectra
  // line up as
  //   L:        (m - r) zeros, then the r positives;
  //   stored:   (d - r) zeros, then the same r positives
  // (d == m for a primal spectrum). A thin dual factor (d < m) burns
  // m - d never-selecting draws for the zeros it leaves implicit; a wide
  // one (d > m) skips its d - m leading structural zeros (C cannot have
  // rank above m) without consuming anything. Either way exactly m draws
  // are consumed.
  for (int i = d; i < m; ++i) rng->Uniform();
  const int skip = std::max(0, d - m);
  for (int j = 0; j < skip; ++j) {
    if (lambda[j] != 0.0) {
      // Rank above the ground size is impossible; a positive here means
      // the clamp failed to absorb dual-eigensolve noise.
      return Status::Internal(
          "wide dual factor carries more positive eigenvalues than the "
          "ground set admits");
    }
  }
  std::vector<int> selected;
  for (int j = skip; j < d; ++j) {
    const double lam = lambda[j];
    if (rng->Uniform() < lam / (1.0 + lam)) selected.push_back(j);
  }
  if (selected.empty()) return std::vector<int>{};
  return SampleElementaryDpp(spectrum_.EigenvectorColumns(selected), rng);
}

}  // namespace lkpdpp
