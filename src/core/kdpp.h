// The tailored k-DPP distribution over a small ground set.
//
// Given a PSD kernel L over a ground set of m = k+n items, a k-DPP assigns
// to every subset S of cardinality exactly k the probability
//   P(S) = det(L_S) / e_k(lambda(L))            (paper Eq. 4, 6)
// where e_k is the k-th elementary symmetric polynomial of the kernel's
// eigenvalues. This file provides exact probabilities, exhaustive
// enumeration (the ground sets in LkP are small by construction), exact
// sampling (Kulesza & Taskar, Alg. 8), the k-DPP marginal kernel, and the
// gradient of the normalizer needed by the LkP criterion.

#ifndef LKPDPP_CORE_KDPP_H_
#define LKPDPP_CORE_KDPP_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "linalg/low_rank.h"
#include "linalg/matrix.h"
#include "linalg/spectrum.h"

namespace lkpdpp {

/// An exact k-DPP over a ground set {0, .., m-1} with PSD kernel L.
///
/// Two representations share this type, both held as a KernelSpectrum
/// (linalg/spectrum.h). The primal one (Create) eigendecomposes the
/// m x m kernel. The dual one (CreateDual) takes a rank-d factor V with
/// L = V V^T and works entirely through the d x d dual kernel C = V^T V
/// (Gartrell et al. 2016): construction costs O(m d^2 + d^3) instead of
/// O(m^3), each Sample costs O(m d k), and the m x m kernel is never
/// materialized. Both define the same distribution; the sampler consumes
/// its Rng identically over either spectrum, so a fixed seed yields the
/// same subset stream in either representation.
class KDpp {
 public:
  /// Builds the distribution. Fails if the kernel is not square/symmetric,
  /// if k is outside [1, m], if e_k underflows to zero (kernel rank < k,
  /// in which case no cardinality-k subset has positive probability), or
  /// if any intermediate elementary symmetric polynomial overflows double
  /// range (the sampler's ESP-table walk would be corrupted).
  /// Slightly negative eigenvalues from round-off are clamped to zero.
  static Result<KDpp> Create(Matrix kernel, int k);

  /// Builds the k-DPP with kernel L = V V^T from its factor, without
  /// materializing L. Applies the same spectrum checks as Create — PSD
  /// clamp at primal ground size (rank detection is representation-
  /// independent), rank >= k, ESP-table overflow rejection.
  static Result<KDpp> CreateDual(LowRankFactor factor, int k);

  int k() const { return k_; }
  int ground_size() const { return spectrum_.ground_size(); }
  bool is_dual() const { return spectrum_.is_dual(); }

  /// Primal mode: all m eigenvalues of L, ascending. Dual mode: the d
  /// eigenvalues of C = V^T V, ascending — L's spectrum is these plus
  /// (m - d) implicit zeros, which no ESP or sampler ever needs.
  const Vector& eigenvalues() const { return spectrum_.eigenvalues(); }
  /// Primal mode: eigenvectors of L. Dual mode: eigenvectors of C (d x d
  /// dual vectors).
  const Matrix& eigenvectors() const { return spectrum_.eigenvectors(); }

  /// log Z_k = log e_k(lambda).
  double LogNormalizer() const { return log_zk_; }

  /// log P(S) for a subset of cardinality k. Fails for wrong cardinality,
  /// duplicate or out-of-range indices. Singular det(L_S) yields -inf.
  Result<double> LogProb(const std::vector<int>& subset) const;

  /// P(S) = exp(LogProb).
  Result<double> Prob(const std::vector<int>& subset) const;

  /// Enumerates every cardinality-k subset with its probability,
  /// in lexicographic subset order. Fails if C(m, k) exceeds `max_subsets`
  /// (guards accidental exponential blowups).
  Result<std::vector<std::pair<std::vector<int>, double>>>
  EnumerateProbabilities(long max_subsets = 1000000) const;

  /// Exact sample of a cardinality-k subset (ascending indices).
  /// Two-phase algorithm: select an elementary DPP (eigenvector subset of
  /// size k) by walking the ESP table, then sample the elementary DPP by
  /// iterative projection. The ESP table is computed once at Create time
  /// and shared by all Sample calls, so repeated draws skip the O(m*k)
  /// table rebuild. Thread-safe: concurrent calls with distinct Rngs only
  /// read shared state.
  Result<std::vector<int>> Sample(Rng* rng) const;

  /// Marginal kernel M with M_ii = P(i in S); in general
  ///   M = sum_n [lambda_n * e_{k-1}(lambda \ n) / e_k] u_n u_n^T,
  /// whose trace is exactly k. The per-column weights are assembled in
  /// log domain, so wide eigenvalue dynamic ranges cannot overflow the
  /// exclusion polynomials into inf/NaN entries. Dual mode assembles the
  /// sum from lifted eigenvectors at O(m^2 r); zero eigenvalues carry
  /// zero weight in either representation, so the (m - d) implicit zeros
  /// contribute nothing.
  Matrix MarginalKernel() const;

  /// diag(M) without materializing M: P(i in S) for every item. O(m^2)
  /// primal, O(m d r) dual.
  Vector MarginalDiagonal() const;

  /// Gradient of the normalizer: d Z_k / d L
  ///   = sum_n e_{k-1}(lambda \ n) u_n u_n^T.
  /// Unnormalized: entries overflow to inf where the gradient itself
  /// exceeds double range; prefer LogNormalizerGradient for training.
  /// Primal mode only (LKP_CHECK): the gradient has components along
  /// L's null-space eigenvectors, which the dual factor cannot
  /// represent — training paths construct primal KDpps.
  Matrix NormalizerGradient() const;

  /// Gradient of log Z_k w.r.t. L (NormalizerGradient / Z_k), computed in
  /// log domain so it stays finite whenever Z_k does. Primal mode only
  /// (LKP_CHECK), see NormalizerGradient.
  Matrix LogNormalizerGradient() const;

 private:
  KDpp(KernelSpectrum spectrum, int k, double log_zk, Matrix esp_table);

  /// Shared tail of Create/CreateDual: the rank and ESP checks, the
  /// normalizer and the sampler's ESP table.
  static Result<KDpp> FromSpectrum(KernelSpectrum spectrum, int k);

  /// Per-spectrum-column marginal weight lambda_c e_{k-1}(lambda \ c)/Z_k.
  Vector MarginalWeights() const;

  /// sum_n [e_{k-1}(lambda \ n) / exp(log_scale)] u_n u_n^T with the
  /// weights taken in log domain; primal mode only (LKP_CHECK).
  Matrix ScaledNormalizerGradient(double log_scale) const;

  KernelSpectrum spectrum_;
  int k_;
  double log_zk_;
  Matrix esp_table_;  // Full Algorithm-1 table over eigenvalues() (m+1
                      // columns primal, d+1 dual), reused by every
                      // Sample; its last column holds e_0..e_k (e_k is
                      // the normalizer, identical either way because
                      // zero eigenvalues leave ESPs unchanged).
};

/// Number of cardinality-k subsets of an m-set, as a double (exact for the
/// small m used here).
double BinomialCoefficient(int m, int k);

/// Iterates lexicographic k-combinations of {0..m-1}. Returns false when
/// `idx` was the last combination. `idx` must hold a valid combination.
bool NextCombination(std::vector<int>* idx, int m);

}  // namespace lkpdpp

#endif  // LKPDPP_CORE_KDPP_H_
