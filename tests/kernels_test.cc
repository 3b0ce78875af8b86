// Tests for the diversity kernels (Eq. 3 trainer, Gaussian E-type), the
// quality-diversity assembly (Eq. 2), and the Nystrom factors Gaussian
// kernels are served through.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "kernels/diversity_kernel.h"
#include "kernels/gaussian_embedding.h"
#include "kernels/nystrom.h"
#include "kernels/quality_diversity.h"
#include "linalg/eigen.h"
#include "serve/kernel_source.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

using testutil::RandomMatrix;

Dataset SmallDataset(uint64_t seed = 42) {
  SyntheticConfig cfg;
  cfg.name = "tiny";
  cfg.num_users = 60;
  cfg.num_items = 80;
  cfg.num_categories = 10;
  cfg.num_events = 6000;
  cfg.seed = seed;
  auto ds = GenerateSyntheticDataset(cfg);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return std::move(ds).ValueOrDie();
}

TEST(DiversityKernelTest, RandomKernelHasUnitDiagonal) {
  DiversityKernel k = DiversityKernel::Random(20, 8, 1);
  for (int i = 0; i < 20; ++i) EXPECT_NEAR(k.Entry(i, i), 1.0, 1e-12);
}

TEST(DiversityKernelTest, EntriesAreBoundedCosines) {
  DiversityKernel k = DiversityKernel::Random(20, 8, 2);
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 20; ++j) {
      EXPECT_LE(std::fabs(k.Entry(i, j)), 1.0 + 1e-12);
    }
  }
}

TEST(DiversityKernelTest, SubmatrixIsPsdAndSymmetric) {
  DiversityKernel k = DiversityKernel::Random(30, 10, 3);
  Matrix sub = k.Submatrix({1, 5, 9, 22, 17});
  EXPECT_TRUE(sub.IsSymmetric());
  auto eig = SymmetricEigen(sub);
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig->eigenvalues[0], -1e-10);
}

TEST(DiversityKernelTest, SubmatrixMatchesEntry) {
  DiversityKernel k = DiversityKernel::Random(10, 6, 4);
  Matrix sub = k.Submatrix({2, 7});
  EXPECT_NEAR(sub(0, 1), k.Entry(2, 7), 1e-12);
}

TEST(DiversityKernelTest, TrainRejectsBadConfig) {
  Dataset ds = SmallDataset();
  DiversityKernel::TrainConfig cfg;
  cfg.rank = 0;
  EXPECT_FALSE(DiversityKernel::Train(ds, cfg).ok());
  cfg.rank = 3;
  cfg.set_size = 5;  // set_size > rank: determinants vanish.
  EXPECT_FALSE(DiversityKernel::Train(ds, cfg).ok());
}

TEST(DiversityKernelTest, TrainingImprovesContrastiveObjective) {
  Dataset ds = SmallDataset();
  DiversityKernel::TrainConfig cfg;
  cfg.rank = 12;
  cfg.epochs = 6;
  cfg.pairs_per_epoch = 150;
  cfg.set_size = 4;
  cfg.seed = 5;

  DiversityKernel untrained =
      DiversityKernel::Random(ds.num_items(), cfg.rank, cfg.seed);
  auto trained = DiversityKernel::Train(ds, cfg);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();

  Rng probe_rng(99);
  auto j_before = untrained.Objective(ds, 150, 1e-4, &probe_rng);
  Rng probe_rng2(99);
  auto j_after = trained->Objective(ds, 150, 1e-4, &probe_rng2);
  ASSERT_TRUE(j_before.ok());
  ASSERT_TRUE(j_after.ok());
  // Eq. 3 objective must move up: diverse sets gain determinant mass.
  EXPECT_GT(*j_after, *j_before);
}

TEST(DiversityKernelTest, TrainedKernelKeepsUnitRows) {
  Dataset ds = SmallDataset();
  DiversityKernel::TrainConfig cfg;
  cfg.rank = 10;
  cfg.epochs = 2;
  cfg.pairs_per_epoch = 60;
  cfg.set_size = 4;
  auto trained = DiversityKernel::Train(ds, cfg);
  ASSERT_TRUE(trained.ok());
  for (int i = 0; i < trained->num_items(); ++i) {
    EXPECT_NEAR(trained->Entry(i, i), 1.0, 1e-9);
  }
}

TEST(GaussianKernelTest, DiagonalIsOneAndSymmetric) {
  Rng rng(6);
  Matrix emb = RandomMatrix(5, 3, &rng);
  Matrix k = GaussianKernel(emb, 1.0);
  EXPECT_TRUE(k.IsSymmetric());
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(k(i, i), 1.0);
}

TEST(GaussianKernelTest, MatchesClosedForm) {
  Matrix emb{{0.0, 0.0}, {1.0, 0.0}, {0.0, 2.0}};
  Matrix k = GaussianKernel(emb, 1.0);
  EXPECT_NEAR(k(0, 1), std::exp(-0.5), 1e-12);
  EXPECT_NEAR(k(0, 2), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(k(1, 2), std::exp(-2.5), 1e-12);
}

TEST(GaussianKernelTest, WiderBandwidthRaisesSimilarity) {
  Matrix emb{{0.0}, {2.0}};
  EXPECT_LT(GaussianKernel(emb, 0.5)(0, 1), GaussianKernel(emb, 2.0)(0, 1));
}

TEST(GaussianKernelTest, IsPsd) {
  Rng rng(7);
  Matrix emb = RandomMatrix(8, 4, &rng);
  auto eig = SymmetricEigen(GaussianKernel(emb, 1.3));
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig->eigenvalues[0], -1e-10);
}

TEST(GaussianKernelTest, BackwardMatchesFiniteDifference) {
  Rng rng(8);
  const int m = 4, d = 3;
  const double sigma = 0.9;
  Matrix emb = RandomMatrix(m, d, &rng);
  // Random upstream gradient.
  Matrix dk = RandomMatrix(m, m, &rng);
  const Matrix kernel = GaussianKernel(emb, sigma);
  const Matrix demb = GaussianKernelBackward(emb, kernel, dk, sigma);

  auto loss = [&](const Matrix& e) {
    const Matrix k = GaussianKernel(e, sigma);
    double total = 0.0;
    for (int r = 0; r < m; ++r) {
      for (int c = 0; c < m; ++c) total += dk(r, c) * k(r, c);
    }
    return total;
  };
  const double h = 1e-6;
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < d; ++c) {
      Matrix plus = emb, minus = emb;
      plus(r, c) += h;
      minus(r, c) -= h;
      const double fd = (loss(plus) - loss(minus)) / (2.0 * h);
      EXPECT_NEAR(demb(r, c), fd, 1e-5 * std::max(1.0, std::fabs(fd)))
          << "(" << r << "," << c << ")";
    }
  }
}

TEST(QualityTransformTest, ExpValuesAndClamp) {
  Vector s{0.0, 1.0, -100.0, 100.0};
  Vector q = ApplyQuality(s, QualityTransform::kExp);
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  EXPECT_NEAR(q[1], std::exp(1.0), 1e-12);
  EXPECT_NEAR(q[2], std::exp(-30.0), 1e-18);  // Clamped.
  EXPECT_NEAR(q[3], std::exp(30.0), 1e-3 * std::exp(30.0));
}

TEST(QualityTransformTest, SigmoidValuesStrictlyPositive) {
  Vector s{0.0, -50.0, 50.0};
  Vector q = ApplyQuality(s, QualityTransform::kSigmoid);
  EXPECT_DOUBLE_EQ(q[0], 0.5);
  EXPECT_GT(q[1], 0.0);
  EXPECT_LT(q[2], 1.0 + 1e-12);
}

TEST(QualityTransformTest, LogDerivativeMatchesFiniteDifference) {
  for (QualityTransform t :
       {QualityTransform::kExp, QualityTransform::kSigmoid}) {
    Vector s{-1.2, 0.0, 0.7, 2.5};
    Vector deriv = QualityLogDerivative(s, t);
    const double h = 1e-6;
    for (int i = 0; i < s.size(); ++i) {
      Vector plus = s, minus = s;
      plus[i] += h;
      minus[i] -= h;
      const double fd = (std::log(ApplyQuality(plus, t)[i]) -
                         std::log(ApplyQuality(minus, t)[i])) /
                        (2.0 * h);
      EXPECT_NEAR(deriv[i], fd, 1e-5)
          << QualityTransformName(t) << " idx " << i;
    }
  }
}

TEST(AssembleKernelTest, MatchesDiagSandwich) {
  Vector q{2.0, 3.0};
  Matrix k{{1.0, 0.5}, {0.5, 1.0}};
  Matrix l = AssembleKernel(q, k);
  EXPECT_DOUBLE_EQ(l(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(l(0, 1), 3.0);  // 2 * 0.5 * 3.
  EXPECT_DOUBLE_EQ(l(1, 1), 9.0);
  EXPECT_TRUE(l.IsSymmetric());
}

TEST(AssembleKernelTest, PreservesPsd) {
  Rng rng(9);
  DiversityKernel dk = DiversityKernel::Random(6, 8, 10);
  Matrix sub = dk.Submatrix({0, 1, 2, 3, 4, 5});
  Vector q(6);
  for (int i = 0; i < 6; ++i) q[i] = std::exp(rng.Normal());
  auto eig = SymmetricEigen(AssembleKernel(q, sub));
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig->eigenvalues[0], -1e-9);
}

// Config validation regression: NaN used to pass the rate range checks.
TEST(ConfigValidationTest, TrainConfigRejectsNonFiniteRates) {
  const Dataset dataset = SmallDataset();
  DiversityKernel::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.pairs_per_epoch = 4;
  cfg.learning_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DiversityKernel::Train(dataset, cfg).ok());
  cfg.learning_rate = 0.05;
  cfg.jitter = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(DiversityKernel::Train(dataset, cfg).ok());
}

// ---------------------------------------------------------------------
// Nystrom approximation: computed error bounds

TEST(NystromTest, FullRankReconstructsExactly) {
  Rng rng(19);
  const int n = 12;
  const Matrix k = testutil::RandomCorrelationKernel(n, &rng);
  auto approx = PivotedCholeskyApproximation(
      n, n, 0.0, [&](int i, int j) { return k(i, j); });
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_LE(approx->trace_error_bound, 1e-8);
  const Matrix rebuilt = MatMulTransB(approx->factor, approx->factor);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(rebuilt(i, j), k(i, j), 1e-7) << "(" << i << "," << j
                                                << ")";
    }
  }
}

TEST(NystromTest, TruncatedBoundsAreValid) {
  Rng rng(29);
  const int n = 16;
  const Matrix k = testutil::RandomCorrelationKernel(n, &rng);
  for (int max_rank : {2, 4, 8}) {
    auto approx = PivotedCholeskyApproximation(
        n, max_rank, 0.0, [&](int i, int j) { return k(i, j); });
    ASSERT_TRUE(approx.ok());
    EXPECT_LE(approx->factor.cols(), max_rank);
    const Matrix rebuilt = MatMulTransB(approx->factor, approx->factor);
    double max_err = 0.0;
    double trace_err = 0.0;
    for (int i = 0; i < n; ++i) {
      trace_err += k(i, i) - rebuilt(i, i);
      for (int j = 0; j < n; ++j) {
        max_err = std::max(max_err, std::fabs(k(i, j) - rebuilt(i, j)));
      }
    }
    // The computed bounds are exact identities of the partial Cholesky;
    // allow round-off slack only.
    EXPECT_LE(max_err, approx->entry_error_bound + 1e-9)
        << "max_rank=" << max_rank;
    EXPECT_LE(std::fabs(trace_err - approx->trace_error_bound), 1e-8);
    // Bounds shrink (weakly) as rank grows.
  }
}

TEST(NystromTest, GaussianNystromMatchesExactSubmatrix) {
  Rng rng(31);
  const Matrix embeddings = testutil::RandomMatrix(30, 5, &rng);
  const std::vector<int> pool{2, 5, 9, 11, 14, 17, 20, 23, 26, 29};
  const double sigma = 1.5;
  GaussianKernelSource source(embeddings, sigma, /*max_rank=*/10);
  const Matrix exact = source.PoolSubmatrix(pool);
  EXPECT_EQ(exact.rows(), 10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(exact(i, i), 1.0);
  // Full-rank Nystrom reconstructs the exact submatrix.
  auto approx = GaussianNystrom(embeddings, pool, sigma, 10, 0.0);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  const Matrix rebuilt = MatMulTransB(approx->factor, approx->factor);
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      EXPECT_NEAR(rebuilt(i, j), exact(i, j), 1e-8);
    }
  }
  // Truncated Nystrom honors its own computed bound.
  auto truncated = GaussianNystrom(embeddings, pool, sigma, 4, 0.0);
  ASSERT_TRUE(truncated.ok());
  const Matrix coarse = MatMulTransB(truncated->factor, truncated->factor);
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      EXPECT_LE(std::fabs(coarse(i, j) - exact(i, j)),
                truncated->entry_error_bound + 1e-9);
    }
  }
  EXPECT_GT(truncated->entry_error_bound, 0.0);
}

TEST(NystromTest, RejectsBadArguments) {
  EXPECT_FALSE(PivotedCholeskyApproximation(0, 4, 0.0, nullptr).ok());
  EXPECT_FALSE(
      PivotedCholeskyApproximation(4, 0, 0.0, [](int, int) { return 1.0; })
          .ok());
  EXPECT_FALSE(PivotedCholeskyApproximation(
                   4, 2, std::numeric_limits<double>::quiet_NaN(),
                   [](int, int) { return 1.0; })
                   .ok());
  Rng rng(7);
  const Matrix e = testutil::RandomMatrix(6, 3, &rng);
  EXPECT_FALSE(GaussianNystrom(e, {0, 1}, 0.0, 2, 0.0).ok());
  EXPECT_FALSE(GaussianNystrom(e, {0, 9}, 1.0, 2, 0.0).ok());
  EXPECT_FALSE(GaussianNystrom(e, {}, 1.0, 2, 0.0).ok());
}

}  // namespace
}  // namespace lkpdpp
