#include "core/kdpp.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/dpp.h"
#include "core/esp.h"

namespace lkpdpp {

KDpp::KDpp(KernelSpectrum spectrum, int k, double log_zk, Matrix esp_table)
    : spectrum_(std::move(spectrum)),
      k_(k),
      log_zk_(log_zk),
      esp_table_(std::move(esp_table)) {}

Result<KDpp> KDpp::Create(Matrix kernel, int k) {
  LKP_ASSIGN_OR_RETURN(KernelSpectrum spectrum,
                       KernelSpectrum::FromKernel(std::move(kernel)));
  return FromSpectrum(std::move(spectrum), k);
}

Result<KDpp> KDpp::CreateDual(LowRankFactor factor, int k) {
  LKP_ASSIGN_OR_RETURN(KernelSpectrum spectrum,
                       KernelSpectrum::FromFactor(std::move(factor)));
  return FromSpectrum(std::move(spectrum), k);
}

Result<KDpp> KDpp::FromSpectrum(KernelSpectrum spectrum, int k) {
  const int m = spectrum.ground_size();
  if (k < 1 || k > m) {
    return Status::InvalidArgument(
        StrFormat("k=%d outside [1, %d]", k, m));
  }
  const int d = spectrum.eigenvalues().size();
  if (k > d) {
    // Only a dual spectrum can be this short (d is the factor's rank
    // bound): rank(L) <= d < k, so no cardinality-k subset has positive
    // probability. Report it the way a primal spectrum reports e_k = 0,
    // without building a table the ESP recursion cannot size.
    return Status::NumericalError(
        StrFormat("k-DPP normalizer e_%d = 0 is not positive/finite "
                  "(kernel rank < k?): factor rank bound is %d",
                  k, d));
  }
  // One Algorithm-1 DP table serves both the normalizer (last column)
  // and every Sample call's backward walk. Its checks fail identically
  // for primal and dual spectra: both are PSD-clamped at primal ground
  // size m, and the zeros a dual spectrum leaves implicit would leave
  // every ESP bit-unchanged (e_l <- e_l + 0 * e_{l-1}).
  Matrix esp_table = EspTable(spectrum.eigenvalues(), k);
  if (!esp_table.AllFinite()) {
    // An intermediate e_l can overflow while e_k itself stays finite
    // (huge eigenvalues balanced by tiny ones); the sampler's backward
    // walk would then divide inf by inf, so reject loudly here.
    return Status::NumericalError(
        StrFormat("ESP table overflowed for k=%d over %d eigenvalues: "
                  "eigenvalue dynamic range too large for exact sampling",
                  k, m));
  }
  const double zk = esp_table(k, d);
  if (!(zk > 0.0) || !std::isfinite(zk)) {
    return Status::NumericalError(
        StrFormat("k-DPP normalizer e_%d = %.3e is not positive/finite "
                  "(kernel rank < k?)",
                  k, zk));
  }
  return KDpp(std::move(spectrum), k, std::log(zk), std::move(esp_table));
}

Result<double> KDpp::LogProb(const std::vector<int>& subset) const {
  if (static_cast<int>(subset.size()) != k_) {
    return Status::InvalidArgument(
        StrFormat("k-DPP subset must have cardinality %d, got %zu", k_,
                  subset.size()));
  }
  LKP_ASSIGN_OR_RETURN(double log_det, spectrum_.SubsetLogDet(subset));
  return log_det - log_zk_;
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
  const Vector& lambda = spectrum_.eigenvalues();

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
  // eigenvectors (shared with the standard DPP sampler in dpp.h). A dual
  // spectrum lifts them on demand at O(m d k), never materializing
  // m x m.
  return SampleElementaryDpp(spectrum_.EigenvectorColumns(selected), rng);
}

// Per-column marginal weight lambda[c] * e_{k-1}(lambda \ c) / Z_k,
// assembled in log domain: the raw exclusion polynomial overflows to inf
// (and the zero-eigenvalue columns then produce 0 * inf = NaN) long
// before the ratio itself leaves double range. Works on either spectrum
// — the padding zeros the dual omits would all get weight zero, and
// excluding a value from a zero-padded list leaves every ESP unchanged.
Vector KDpp::MarginalWeights() const {
  const Vector& lambda = spectrum_.eigenvalues();
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
  return spectrum_.WeightedOuter(MarginalWeights());
}

Vector KDpp::MarginalDiagonal() const {
  return spectrum_.WeightedDiagonal(MarginalWeights());
}

Matrix KDpp::ScaledNormalizerGradient(double log_scale) const {
  LKP_CHECK(!is_dual())
      << "normalizer gradients are primal-only: d Z_k / d L has components "
         "along null-space eigenvectors the dual factor cannot represent";
  const Vector log_excl = LogExclusionEsp(spectrum_.eigenvalues(), k_ - 1);
  Vector w(log_excl.size());
  for (int c = 0; c < w.size(); ++c) w[c] = std::exp(log_excl[c] - log_scale);
  return spectrum_.WeightedOuter(w);
}

Matrix KDpp::NormalizerGradient() const {
  return ScaledNormalizerGradient(0.0);
}

// exp(log e_{k-1}(lambda \ c) - log Z_k) directly, instead of scaling
// NormalizerGradient by exp(-log Z_k): the unnormalized gradient can
// overflow even when the normalized one is well inside double range.
Matrix KDpp::LogNormalizerGradient() const {
  return ScaledNormalizerGradient(log_zk_);
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
