#include "core/kdpp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/dpp.h"
#include "core/esp.h"
#include "linalg/lu.h"

namespace lkpdpp {

namespace {

// Validates a subset: sorted copy, in-range, distinct, cardinality k.
Result<std::vector<int>> ValidateSubset(const std::vector<int>& subset, int k,
                                        int m) {
  if (static_cast<int>(subset.size()) != k) {
    return Status::InvalidArgument(
        StrFormat("k-DPP subset must have cardinality %d, got %zu", k,
                  subset.size()));
  }
  std::vector<int> sorted = subset;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] < 0 || sorted[i] >= m) {
      return Status::OutOfRange(
          StrFormat("subset index %d outside ground set of size %d",
                    sorted[i], m));
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument(
          StrFormat("duplicate index %d in subset", sorted[i]));
    }
  }
  return sorted;
}

// Shared spectrum -> (ESP table, log Z_k) finishing for both
// representations. `eigenvalues` must already be PSD-clamped; `m` is the
// primal ground size (only used in messages). Fails on ESP overflow or a
// vanished normalizer, identically for primal and dual spectra (the
// padding zeros of the primal spectrum leave every ESP bit-unchanged:
// e_l <- e_l + 0 * e_{l-1}).
Result<std::pair<Matrix, double>> FinishSpectrum(const Vector& eigenvalues,
                                                 int k, int m) {
  // One Algorithm-1 DP table serves both the normalizer (last column)
  // and every subsequent Sample call's backward walk.
  Matrix esp_table = EspTable(eigenvalues, k);
  if (!esp_table.AllFinite()) {
    // An intermediate e_l can overflow while e_k itself stays finite
    // (huge eigenvalues balanced by tiny ones); the sampler's backward
    // walk would then divide inf by inf, so reject loudly here.
    return Status::NumericalError(
        StrFormat("ESP table overflowed for k=%d over %d eigenvalues: "
                  "eigenvalue dynamic range too large for exact sampling",
                  k, m));
  }
  const double zk = esp_table(k, eigenvalues.size());
  if (!(zk > 0.0) || !std::isfinite(zk)) {
    return Status::NumericalError(
        StrFormat("k-DPP normalizer e_%d = %.3e is not positive/finite "
                  "(kernel rank < k?)",
                  k, zk));
  }
  return std::make_pair(std::move(esp_table), std::log(zk));
}

}  // namespace

KDpp::KDpp(Matrix kernel, int k, EigenDecomposition eig, double log_zk,
           Matrix esp_table)
    : kernel_(std::move(kernel)),
      k_(k),
      eig_(std::move(eig)),
      log_zk_(log_zk),
      esp_table_(std::move(esp_table)) {}

KDpp::KDpp(LowRankFactor factor, int k, EigenDecomposition dual_eig,
           double log_zk, Matrix esp_table)
    : factor_(std::move(factor)),
      dual_(true),
      k_(k),
      eig_(std::move(dual_eig)),
      log_zk_(log_zk),
      esp_table_(std::move(esp_table)) {}

Result<KDpp> KDpp::Create(Matrix kernel, int k) {
  if (kernel.rows() != kernel.cols()) {
    return Status::InvalidArgument(
        StrFormat("k-DPP kernel must be square, got %dx%d", kernel.rows(),
                  kernel.cols()));
  }
  const int m = kernel.rows();
  if (k < 1 || k > m) {
    return Status::InvalidArgument(
        StrFormat("k=%d outside [1, %d]", k, m));
  }
  if (!kernel.AllFinite()) {
    return Status::NumericalError("k-DPP kernel contains non-finite values");
  }
  LKP_ASSIGN_OR_RETURN(EigenDecomposition eig, SymmetricEigen(kernel));
  // Clamp eigenvalues indistinguishable from zero at working precision
  // (either sign: exact zeros of rank-deficient kernels come back as
  // +/- O(eps * lambda_max) noise, and a spurious positive would make
  // the rank check below pass vacuously). Genuinely indefinite kernels
  // are rejected. The policy lives in ClampSpectrumToPsd so the dual
  // path below detects the same rank from the same kernel.
  LKP_RETURN_IF_ERROR(ClampSpectrumToPsd(&eig.eigenvalues, m));
  LKP_ASSIGN_OR_RETURN(auto finish, FinishSpectrum(eig.eigenvalues, k, m));
  return KDpp(std::move(kernel), k, std::move(eig), finish.second,
              std::move(finish.first));
}

Result<KDpp> KDpp::CreateDual(LowRankFactor factor, int k) {
  const int m = factor.ground_size();
  if (m < 1) {
    return Status::InvalidArgument("dual k-DPP requires a non-empty factor");
  }
  if (k < 1 || k > m) {
    return Status::InvalidArgument(
        StrFormat("k=%d outside [1, %d]", k, m));
  }
  if (k > factor.rank_bound()) {
    // rank(L) <= d < k: no cardinality-k subset has positive probability.
    // Primal Create discovers this as e_k = 0; report it the same way
    // without building a table the ESP recursion cannot size.
    return Status::NumericalError(
        StrFormat("k-DPP normalizer e_%d = 0 is not positive/finite "
                  "(kernel rank < k?): factor rank bound is %d",
                  k, factor.rank_bound()));
  }
  // EigenDual applies ClampSpectrumToPsd at primal ground size m, so a
  // rank-deficient kernel reports the same rank as KDpp::Create would.
  LKP_ASSIGN_OR_RETURN(DualEigen dual, factor.EigenDual());
  LKP_ASSIGN_OR_RETURN(auto finish, FinishSpectrum(dual.eigenvalues, k, m));
  EigenDecomposition eig;
  eig.eigenvalues = std::move(dual.eigenvalues);
  eig.eigenvectors = std::move(dual.dual_vectors);
  return KDpp(std::move(factor), k, std::move(eig), finish.second,
              std::move(finish.first));
}

Result<double> KDpp::LogProb(const std::vector<int>& subset) const {
  LKP_ASSIGN_OR_RETURN(std::vector<int> sorted,
                       ValidateSubset(subset, k_, ground_size()));
  // det(L_S) from the kernel submatrix, or from the Gram of the factor's
  // rows — the same k x k matrix, assembled without materializing L.
  const Matrix sub = dual_ ? factor_.SubsetGram(sorted)
                           : kernel_.PrincipalSubmatrix(sorted);
  LKP_ASSIGN_OR_RETURN(double det, Determinant(sub));
  if (det <= 0.0) {
    // PSD principal minors are >= 0; tiny negatives are round-off.
    return -std::numeric_limits<double>::infinity();
  }
  return std::log(det) - log_zk_;
}

Result<double> KDpp::Prob(const std::vector<int>& subset) const {
  LKP_ASSIGN_OR_RETURN(double lp, LogProb(subset));
  return std::exp(lp);
}

Result<std::vector<std::pair<std::vector<int>, double>>>
KDpp::EnumerateProbabilities(long max_subsets) const {
  const int m = ground_size();
  const double count = BinomialCoefficient(m, k_);
  if (count > static_cast<double>(max_subsets)) {
    return Status::FailedPrecondition(
        StrFormat("C(%d,%d) = %.0f exceeds enumeration limit %ld", m, k_,
                  count, max_subsets));
  }
  std::vector<std::pair<std::vector<int>, double>> out;
  out.reserve(static_cast<size_t>(count));
  std::vector<int> idx(k_);
  for (int i = 0; i < k_; ++i) idx[i] = i;
  while (true) {
    LKP_ASSIGN_OR_RETURN(double p, Prob(idx));
    out.emplace_back(idx, p);
    if (!NextCombination(&idx, m)) break;
  }
  return out;
}

Result<std::vector<int>> KDpp::Sample(Rng* rng) const {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const int m = ground_size();
  const Vector& lambda = eig_.eigenvalues;

  // Phase 1 (Kulesza & Taskar Alg. 8): choose k eigenvector indices J,
  // P(n in J) proportional to products of eigenvalues, by walking the
  // ESP table (precomputed at Create) backwards. The walk is identical
  // for both representations: it starts at the top of the ascending
  // spectrum and always completes its k selections before descending
  // into the zero eigenvalues (inclusion is forced once the remaining
  // positive eigenvalues are exactly the l still needed), so the
  // (m - d) padding zeros the dual spectrum omits are never visited and
  // both representations consume the Rng draw-for-draw.
  const Matrix& table = esp_table_;
  std::vector<int> selected;
  selected.reserve(k_);
  int l = k_;
  for (int col = lambda.size(); col >= 1 && l > 0; --col) {
    if (l > col) {
      return Status::Internal("k-DPP sampler ran out of eigenvalues");
    }
    const double denom = table(l, col);
    if (denom <= 0.0) {
      return Status::NumericalError("zero mass in ESP table during sampling");
    }
    const double p_include = lambda[col - 1] * table(l - 1, col - 1) / denom;
    if (rng->Uniform() < p_include) {
      selected.push_back(col - 1);
      --l;
    }
  }
  if (l != 0) {
    return Status::Internal("k-DPP sampler selected fewer than k vectors");
  }

  // Phase 2: sample the elementary DPP spanned by the selected
  // eigenvectors (shared with the standard DPP sampler in dpp.h). Dual
  // mode lifts the selected dual vectors to L-space on demand:
  // O(m d k) for the lift, never an m x m materialization.
  if (dual_) {
    Matrix basis = factor_.LiftEigenvectors(eig_.eigenvalues,
                                            eig_.eigenvectors, selected);
    return SampleElementaryDpp(std::move(basis), rng);
  }
  Matrix v(m, k_);
  for (int c = 0; c < k_; ++c) {
    v.SetCol(c, eig_.eigenvectors.Col(selected[static_cast<size_t>(c)]));
  }
  return SampleElementaryDpp(std::move(v), rng);
}

namespace {

// sum_c w_c u_c u_c^T as (V diag(w)) V^T, symmetrized against round-off.
Matrix WeightedEigenvectorOuter(const Matrix& vecs, const Vector& w) {
  const int m = vecs.rows();
  Matrix scaled(m, m);
  for (int c = 0; c < m; ++c) {
    for (int r = 0; r < m; ++r) scaled(r, c) = vecs(r, c) * w[c];
  }
  Matrix out = MatMulTransB(scaled, vecs);
  out.Symmetrize();
  return out;
}

}  // namespace

// Per-column marginal weight lambda[c] * e_{k-1}(lambda \ c) / Z_k,
// assembled in log domain: the raw exclusion polynomial overflows to inf
// (and the zero-eigenvalue columns then produce 0 * inf = NaN) long
// before the ratio itself leaves double range. Works on either spectrum
// — the padding zeros the dual omits would all get weight zero, and
// excluding a value from a zero-padded list leaves every ESP unchanged.
Vector KDpp::MarginalWeights() const {
  const Vector& lambda = eig_.eigenvalues;
  const Vector log_excl = LogExclusionEsp(lambda, k_ - 1);
  Vector w(lambda.size());
  for (int c = 0; c < lambda.size(); ++c) {
    w[c] = lambda[c] > 0.0
               ? std::exp(std::log(lambda[c]) + log_excl[c] - log_zk_)
               : 0.0;
  }
  return w;
}

Matrix KDpp::MarginalKernel() const {
  const Vector w = MarginalWeights();
  if (dual_) {
    return WeightedLiftedOuter(factor_, eig_.eigenvalues,
                               eig_.eigenvectors, w);
  }
  return WeightedEigenvectorOuter(eig_.eigenvectors, w);
}

Vector KDpp::MarginalDiagonal() const {
  const Vector w = MarginalWeights();
  if (dual_) {
    return WeightedLiftedDiagonal(factor_, eig_.eigenvalues,
                                  eig_.eigenvectors, w);
  }
  return WeightedEigenvectorDiagonal(eig_.eigenvectors, w);
}

Matrix KDpp::NormalizerGradient() const {
  LKP_CHECK(!dual_)
      << "NormalizerGradient is primal-only: d Z_k / d L has components "
         "along null-space eigenvectors the dual factor cannot represent";
  const int m = ground_size();
  const Vector log_excl = LogExclusionEsp(eig_.eigenvalues, k_ - 1);
  Vector w(m);
  for (int c = 0; c < m; ++c) w[c] = std::exp(log_excl[c]);
  return WeightedEigenvectorOuter(eig_.eigenvectors, w);
}

Matrix KDpp::LogNormalizerGradient() const {
  LKP_CHECK(!dual_)
      << "LogNormalizerGradient is primal-only: d log Z_k / d L has "
         "components along null-space eigenvectors the dual factor "
         "cannot represent";
  const int m = ground_size();
  // exp(log e_{k-1}(lambda \ c) - log Z_k) directly, instead of scaling
  // NormalizerGradient by exp(-log Z_k): the unnormalized gradient can
  // overflow even when the normalized one is well inside double range.
  const Vector log_excl = LogExclusionEsp(eig_.eigenvalues, k_ - 1);
  Vector w(m);
  for (int c = 0; c < m; ++c) w[c] = std::exp(log_excl[c] - log_zk_);
  return WeightedEigenvectorOuter(eig_.eigenvectors, w);
}

double BinomialCoefficient(int m, int k) {
  if (k < 0 || k > m) return 0.0;
  k = std::min(k, m - k);
  double out = 1.0;
  for (int i = 1; i <= k; ++i) {
    out = out * static_cast<double>(m - k + i) / static_cast<double>(i);
  }
  return out;
}

bool NextCombination(std::vector<int>* idx, int m) {
  const int k = static_cast<int>(idx->size());
  int pos = k - 1;
  while (pos >= 0 && (*idx)[pos] == m - k + pos) --pos;
  if (pos < 0) return false;
  ++(*idx)[pos];
  for (int j = pos + 1; j < k; ++j) (*idx)[j] = (*idx)[j - 1] + 1;
  return true;
}

}  // namespace lkpdpp
