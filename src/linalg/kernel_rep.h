// Representation-generic read view of a PSD kernel.
//
// An algorithm that only needs kernel *entries* — diagonals and rows,
// which is all greedy MAP's incremental Cholesky reads — is written once
// against KernelRep and runs on whichever representation is cheapest.
//
// Representations:
//   * PrimalKernelRep     — a materialized n x n Matrix. O(1) row reads;
//                           O(n² d) to build from a rank-d factor.
//   * FactorDiagKernelRep — L = Diag(s) (α·V·Vᵀ + δ·I) Diag(s) held as
//                           the thin n x d factor plus the three scalars
//                           /per-row scales. Rows are synthesized on
//                           demand at O(n d); the n x n is NEVER
//                           materialized. δ > 0 is what makes blended
//                           kernels (α < 1) representable: the diagonal
//                           correction rides beside the factor instead
//                           of being absorbed into it.
//
// Bit-exactness contract: FactorDiagKernelRep computes each entry with
// EXACTLY the arithmetic the primal serving pipeline uses to materialize
// the same kernel —
//     dot     = Σ_c V(i,c)·V(j,c)        ascending c
//               (DiversityKernel::Entry / naive-order blocked GEMM),
//     blended = dot · α, then + δ on the diagonal
//               (Matrix::operator*= then Matrix::AddDiagonal),
//     L(i,j)  = (s_i · blended) · s_j    left-to-right
//               (AssembleKernel's q_i * k * q_j) —
// so an entry-driven algorithm fed either representation sees
// bit-identical doubles and takes bit-identical branches. This is what
// lets serving pin "factor-path greedy MAP selects the same set as the
// forced-primal oracle" as an exact equality, not a tolerance.
//
// Scope: KernelRep serves ENTRY-driven algorithms (greedy MAP). Sampling
// needs the spectrum, which no KernelRep computes: sampling-mode serving
// builds a primal KDpp for blended kernels and a dual one
// (linalg/spectrum.h) only at α == 1, where the kernel is a pure factor.
//
// Thread safety: reps are immutable after construction; concurrent
// FillRow/FillDiag/Entry calls are safe.

#ifndef LKPDPP_LINALG_KERNEL_REP_H_
#define LKPDPP_LINALG_KERNEL_REP_H_

#include <memory>
#include <utility>

#include "common/result.h"
#include "linalg/low_rank.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// Read-only view of a symmetric PSD kernel L over n items. Algorithms
/// that only consume entries (diagonals + rows) run unchanged on any
/// implementation; which one is profitable is the caller's cost model.
class KernelRep {
 public:
  virtual ~KernelRep() = default;

  /// Ground-set size n.
  virtual int size() const = 0;

  /// Writes L(i, i) for every i into out[0 .. size()).
  virtual void FillDiag(double* out) const = 0;

  /// Writes row j — L(j, i) for every i — into out[0 .. size()).
  /// Row-major row j of the materialized kernel, bit for bit.
  virtual void FillRow(int j, double* out) const = 0;

  /// Single entry L(i, j). Convenience for tests and cross-checks; hot
  /// loops use the Fill* batch calls.
  virtual double Entry(int i, int j) const = 0;
};

/// KernelRep over a materialized n x n Matrix, owning or viewing it.
class PrimalKernelRep final : public KernelRep {
 public:
  /// Takes ownership of the kernel. Must be square.
  explicit PrimalKernelRep(Matrix kernel);

  /// Non-owning view over a caller-owned kernel (the Matrix entry point
  /// of GreedyMapInference). The referent must outlive the view.
  static PrimalKernelRep View(const Matrix& kernel);

  int size() const override { return matrix_->rows(); }
  void FillDiag(double* out) const override;
  void FillRow(int j, double* out) const override;
  double Entry(int i, int j) const override;

  const Matrix& matrix() const { return *matrix_; }

 private:
  PrimalKernelRep() = default;
  Matrix owned_;
  const Matrix* matrix_ = nullptr;  // &owned_, or the viewed referent.
};

/// KernelRep for L = Diag(scale) (alpha·V·Vᵀ + delta·I) Diag(scale)
/// stored as the n x d factor V plus the conditioning terms — the
/// serving-side conditioned kernel (quality scaling x identity-blended
/// diversity) without the n x n materialization. Entries are synthesized
/// on demand with the primal pipeline's exact arithmetic (see the file
/// header); FillRow costs O(n d), FillDiag O(n d), total memory O(n d).
class FactorDiagKernelRep final : public KernelRep {
 public:
  /// `v` is the n x d factor; `scale` (length n) the per-row outer
  /// scaling (quality); `alpha` the factor weight and `delta` the
  /// diagonal shift, both >= 0 and finite so L stays PSD. Fails on
  /// empty/non-finite inputs or shape mismatches.
  static Result<FactorDiagKernelRep> Create(Matrix v, Vector scale,
                                            double alpha, double delta);

  int size() const override { return factor_.ground_size(); }
  void FillDiag(double* out) const override;
  void FillRow(int j, double* out) const override;
  double Entry(int i, int j) const override;

  const LowRankFactor& factor() const { return factor_; }
  const Vector& scale() const { return scale_; }
  double alpha() const { return alpha_; }
  double delta() const { return delta_; }

 private:
  FactorDiagKernelRep(LowRankFactor factor, Vector scale, double alpha,
                      double delta)
      : factor_(std::move(factor)),
        scale_(std::move(scale)),
        alpha_(alpha),
        delta_(delta) {}

  LowRankFactor factor_;  // V: n x d.
  Vector scale_;          // s: length n.
  double alpha_ = 1.0;
  double delta_ = 0.0;
};

/// KernelRep for the degenerate blend alpha == 0: L = Diag(s) (delta·I)
/// Diag(s), a pure diagonal. O(n) memory, no factor gather, no
/// materialization. Diagonal entries use the primal pipeline's exact
/// arithmetic — (s_i · delta) · s_i bit-matches AssembleKernel's
/// q_i * (0·K_ii + delta) * q_i because ±0.0 + delta == delta and
/// q_i * 1.0 == q_i exactly in IEEE-754. Off-diagonals return +0.0 where
/// the primal materialization can carry ±0.0 (sign of 0·K_ij·q_i·q_j);
/// the sign of an exact zero never changes a greedy-MAP branch (zeros
/// enter only as c² = +0.0 updates and ±0 dot terms), so selections
/// still pin bit-identical against the forced-primal oracle.
class DiagKernelRep final : public KernelRep {
 public:
  /// `scale` (length n) is the per-row outer scaling (quality); `delta`
  /// the diagonal shift, >= 0 and finite so L stays PSD. Fails on empty
  /// or non-finite inputs.
  static Result<DiagKernelRep> Create(Vector scale, double delta);

  int size() const override { return scale_.size(); }
  void FillDiag(double* out) const override;
  void FillRow(int j, double* out) const override;
  double Entry(int i, int j) const override;

  const Vector& scale() const { return scale_; }
  double delta() const { return delta_; }

 private:
  DiagKernelRep(Vector scale, double delta)
      : scale_(std::move(scale)), delta_(delta) {}

  Vector scale_;  // s: length n.
  double delta_ = 1.0;
};

}  // namespace lkpdpp

#endif  // LKPDPP_LINALG_KERNEL_REP_H_
