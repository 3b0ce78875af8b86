#include "core/dpp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "linalg/lu.h"

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

Dpp::Dpp(Matrix kernel, EigenDecomposition eig, double log_z)
    : kernel_(std::move(kernel)), eig_(std::move(eig)), log_z_(log_z) {}

Dpp::Dpp(LowRankFactor factor, EigenDecomposition dual_eig, double log_z)
    : factor_(std::move(factor)),
      dual_(true),
      eig_(std::move(dual_eig)),
      log_z_(log_z) {}

Result<Dpp> Dpp::Create(Matrix kernel) {
  if (kernel.rows() != kernel.cols()) {
    return Status::InvalidArgument(
        StrFormat("DPP kernel must be square, got %dx%d", kernel.rows(),
                  kernel.cols()));
  }
  if (!kernel.AllFinite()) {
    return Status::NumericalError("DPP kernel contains non-finite values");
  }
  LKP_ASSIGN_OR_RETURN(EigenDecomposition eig, SymmetricEigen(kernel));
  // Shared PSD-boundary handling (see ClampSpectrumToPsd): eigenvalues
  // within working precision of zero (either sign) are clamped to exactly
  // zero, genuinely indefinite kernels are rejected.
  LKP_RETURN_IF_ERROR(
      ClampSpectrumToPsd(&eig.eigenvalues, kernel.rows()));
  double log_z = 0.0;
  for (int i = 0; i < eig.eigenvalues.size(); ++i) {
    log_z += std::log1p(eig.eigenvalues[i]);
  }
  return Dpp(std::move(kernel), std::move(eig), log_z);
}

Result<Dpp> Dpp::CreateDual(LowRankFactor factor) {
  if (factor.ground_size() < 1) {
    return Status::InvalidArgument("dual DPP requires a non-empty factor");
  }
  // EigenDual applies the same clamp as Create, at primal ground size.
  LKP_ASSIGN_OR_RETURN(DualEigen dual, factor.EigenDual());
  // The (n - d) eigenvalues of L missing from the dual spectrum are
  // exactly zero and contribute log1p(0) = 0 to log det(L + I).
  double log_z = 0.0;
  for (int i = 0; i < dual.eigenvalues.size(); ++i) {
    log_z += std::log1p(dual.eigenvalues[i]);
  }
  EigenDecomposition eig;
  eig.eigenvalues = std::move(dual.eigenvalues);
  eig.eigenvectors = std::move(dual.dual_vectors);
  return Dpp(std::move(factor), std::move(eig), log_z);
}

Result<double> Dpp::LogProb(const std::vector<int>& subset) const {
  std::vector<int> sorted = subset;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] < 0 || sorted[i] >= ground_size()) {
      return Status::OutOfRange(
          StrFormat("subset index %d outside ground set of size %d",
                    sorted[i], ground_size()));
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument(
          StrFormat("duplicate index %d in subset", sorted[i]));
    }
  }
  if (sorted.empty()) return -log_z_;  // det of empty matrix is 1.
  // det(L_S) from the kernel submatrix, or from the Gram of the factor's
  // rows — the same matrix, assembled without materializing L.
  const Matrix sub = dual_ ? factor_.SubsetGram(sorted)
                           : kernel_.PrincipalSubmatrix(sorted);
  LKP_ASSIGN_OR_RETURN(double det, Determinant(sub));
  if (det <= 0.0) return -std::numeric_limits<double>::infinity();
  return std::log(det) - log_z_;
}

Result<double> Dpp::Prob(const std::vector<int>& subset) const {
  LKP_ASSIGN_OR_RETURN(double lp, LogProb(subset));
  return std::exp(lp);
}

// Per-column marginal weight lambda / (1 + lambda) — zero exactly on
// zero eigenvalues, in either representation.
static Vector DppMarginalWeights(const Vector& lambda) {
  Vector w(lambda.size());
  for (int c = 0; c < lambda.size(); ++c) {
    w[c] = lambda[c] / (1.0 + lambda[c]);
  }
  return w;
}

Matrix Dpp::MarginalKernel() const {
  const int m = ground_size();
  const Vector w = DppMarginalWeights(eig_.eigenvalues);
  if (dual_) {
    return WeightedLiftedOuter(factor_, eig_.eigenvalues,
                               eig_.eigenvectors, w);
  }
  Matrix scaled(m, m);
  for (int c = 0; c < m; ++c) {
    for (int r = 0; r < m; ++r) {
      scaled(r, c) = eig_.eigenvectors(r, c) * w[c];
    }
  }
  Matrix out = MatMulTransB(scaled, eig_.eigenvectors);
  out.Symmetrize();
  return out;
}

Vector Dpp::MarginalDiagonal() const {
  const Vector w = DppMarginalWeights(eig_.eigenvalues);
  if (dual_) {
    return WeightedLiftedDiagonal(factor_, eig_.eigenvalues,
                                  eig_.eigenvectors, w);
  }
  return WeightedEigenvectorDiagonal(eig_.eigenvectors, w);
}

double Dpp::ExpectedSize() const {
  double s = 0.0;
  for (int i = 0; i < eig_.eigenvalues.size(); ++i) {
    s += eig_.eigenvalues[i] / (1.0 + eig_.eigenvalues[i]);
  }
  return s;
}

Result<std::vector<int>> Dpp::Sample(Rng* rng) const {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const int m = ground_size();
  if (dual_) {
    const Vector& lambda = eig_.eigenvalues;
    const int d = lambda.size();
    // Draw-for-draw compatible with the primal sampler, which spends one
    // (never-selecting) Uniform() on each of L's zero eigenvalues. The
    // ascending spectra line up as
    //   primal: (m - r) zeros, then the r positives;
    //   dual:   (d - r) zeros, then the same r positives;
    // so a thin factor (d < m) burns m - d extra draws to mirror the
    // primal's leading zeros, and a wide factor (d > m) skips its d - m
    // leading structural zeros (C cannot have rank above m) without
    // consuming anything. Either way exactly m draws are consumed and a
    // fixed seed yields the same subset in either representation.
    for (int i = 0; i < m - d; ++i) {
      if (rng->Uniform() < 0.0) {
        return Status::Internal("zero eigenvalue selected in dual sampler");
      }
    }
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
    Matrix basis = factor_.LiftEigenvectors(eig_.eigenvalues,
                                            eig_.eigenvectors, selected);
    return SampleElementaryDpp(std::move(basis), rng);
  }
  std::vector<int> selected;
  for (int i = 0; i < m; ++i) {
    const double lam = eig_.eigenvalues[i];
    if (rng->Uniform() < lam / (1.0 + lam)) selected.push_back(i);
  }
  if (selected.empty()) return std::vector<int>{};
  Matrix basis(m, static_cast<int>(selected.size()));
  for (size_t c = 0; c < selected.size(); ++c) {
    basis.SetCol(static_cast<int>(c),
                 eig_.eigenvectors.Col(selected[c]));
  }
  return SampleElementaryDpp(std::move(basis), rng);
}

}  // namespace lkpdpp
