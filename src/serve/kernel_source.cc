#include "serve/kernel_source.h"

#include <cmath>
#include <utility>

namespace lkpdpp {

Result<Matrix> DiversityKernelSource::PoolFactor(
    const std::vector<int>& pool) const {
  return kernel_->FactorRows(pool);
}

Matrix DiversityKernelSource::PoolSubmatrix(
    const std::vector<int>& pool) const {
  return kernel_->Submatrix(pool);
}

GaussianKernelSource::GaussianKernelSource(Matrix embeddings, double sigma)
    : embeddings_(std::move(embeddings)), sigma_(sigma) {}

Result<Matrix> GaussianKernelSource::PoolFactor(
    const std::vector<int>& pool) const {
  (void)pool;
  return Status::FailedPrecondition("Gaussian kernels have no thin factor");
}

Matrix GaussianKernelSource::PoolSubmatrix(
    const std::vector<int>& pool) const {
  const int n = static_cast<int>(pool.size());
  const int d = embeddings_.cols();
  const double inv_two_sigma2 = 1.0 / (2.0 * sigma_ * sigma_);
  Matrix k(n, n);
  for (int a = 0; a < n; ++a) {
    k(a, a) = 1.0;
    const double* ea = embeddings_.RowPtr(pool[static_cast<size_t>(a)]);
    for (int b = a + 1; b < n; ++b) {
      const double* eb = embeddings_.RowPtr(pool[static_cast<size_t>(b)]);
      double sq = 0.0;
      for (int c = 0; c < d; ++c) {
        const double diff = ea[c] - eb[c];
        sq += diff * diff;
      }
      const double v = std::exp(-sq * inv_two_sigma2);
      k(a, b) = v;
      k(b, a) = v;
    }
  }
  return k;
}

}  // namespace lkpdpp
