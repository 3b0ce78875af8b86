// What the serving path needs from an item-item kernel.
//
// Serving reads a kernel in two ways:
//
//   PoolSubmatrix — exact K_S entries for a candidate pool (the primal
//                   build path and the differential oracle), and
//   PoolFactor    — an exact pool-local factor F with K_S = F F^T,
//                   feeding the thin paths (dual sampling, factor-backed
//                   MAP) when ThinRank() is below the pool size.
//
// DiversityKernelSource is the pre-learned K = V V^T, whose factor rows
// come straight off the trained factor. GaussianKernelSource is the
// paper's trainable Gaussian kernel (PSE/NPSE "E" variants), which has no
// exact thin factor: it reports ThinRank() == 0, so every pool is served
// exactly through the primal (or alpha == 0 diagonal) path.

#ifndef LKPDPP_SERVE_KERNEL_SOURCE_H_
#define LKPDPP_SERVE_KERNEL_SOURCE_H_

#include <vector>

#include "common/result.h"
#include "kernels/diversity_kernel.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// Abstract item-item PSD kernel as consumed by serving. Implementations
/// must be immutable once handed to a service (serving reads them
/// concurrently with no locks).
class ServingKernelSource {
 public:
  virtual ~ServingKernelSource() = default;

  /// Catalog size the kernel covers.
  virtual int num_items() const = 0;

  /// Column count of the factor PoolFactor returns; 0 when the source
  /// has no exact thin factor. ChooseServePath compares it against the
  /// pool size.
  virtual int ThinRank() const = 0;

  /// The exact pool-local factor F (|pool| x ThinRank(), K_S = F F^T).
  /// Only called when ThinRank() > 0.
  virtual Result<Matrix> PoolFactor(const std::vector<int>& pool) const = 0;

  /// Exact principal submatrix K_S for the pool.
  virtual Matrix PoolSubmatrix(const std::vector<int>& pool) const = 0;
};

/// The pre-learned low-rank diversity kernel. Does not own the kernel;
/// it must outlive this source.
class DiversityKernelSource : public ServingKernelSource {
 public:
  explicit DiversityKernelSource(const DiversityKernel* kernel)
      : kernel_(kernel) {}

  int num_items() const override { return kernel_->num_items(); }
  int ThinRank() const override { return kernel_->rank(); }
  Result<Matrix> PoolFactor(const std::vector<int>& pool) const override;
  Matrix PoolSubmatrix(const std::vector<int>& pool) const override;

 private:
  const DiversityKernel* kernel_;
};

/// Trainable Gaussian kernel over item embeddings (paper's E variants),
/// K_ij = exp(-||e_i - e_j||^2 / (2 sigma^2)). Owns a copy of the
/// embeddings (a serving snapshot: training may keep mutating its own
/// copy).
class GaussianKernelSource : public ServingKernelSource {
 public:
  GaussianKernelSource(Matrix embeddings, double sigma);

  int num_items() const override { return embeddings_.rows(); }
  int ThinRank() const override { return 0; }
  Result<Matrix> PoolFactor(const std::vector<int>& pool) const override;
  Matrix PoolSubmatrix(const std::vector<int>& pool) const override;

 private:
  Matrix embeddings_;
  double sigma_;
};

}  // namespace lkpdpp

#endif  // LKPDPP_SERVE_KERNEL_SOURCE_H_
