// Differential tests for KernelRep: FactorDiagKernelRep must be
// bit-identical to the materialized primal pipeline — entries, rows,
// diagonals, and (therefore) every greedy-MAP selection — across ranks,
// blend alphas, rank-deficient factors, duplicated rows, and exact
// ties. Also pins the relative stopping threshold (kernels at 1e-150 /
// 1e150 scale rerank correctly) and the no-materialization guarantee of
// the factor path (allocation probe).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/map_inference.h"
#include "kernels/quality_diversity.h"
#include "linalg/kernel_rep.h"
#include "linalg/low_rank.h"
#include "linalg/matrix.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

// The serving builder's primal pipeline, reproduced operation for
// operation: ascending-column factor dots (DiversityKernel::Entry),
// *= alpha, AddDiagonal(delta), AssembleKernel. The differential
// contract under test is that FactorDiagKernelRep equals THIS, bit for
// bit.
Matrix MaterializeConditioned(const Matrix& v, const Vector& quality,
                              double alpha) {
  const int n = v.rows();
  Matrix k(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      for (int c = 0; c < v.cols(); ++c) s += v(i, c) * v(j, c);
      k(i, j) = s;
    }
  }
  k *= alpha;
  k.AddDiagonal(1.0 - alpha);
  return AssembleKernel(quality, k);
}

Vector PositiveQuality(int n, Rng* rng) {
  Vector q(n);
  for (int i = 0; i < n; ++i) q[i] = std::exp(0.3 * rng->Normal());
  return q;
}

FactorDiagKernelRep MakeFactorRep(const Matrix& v, const Vector& quality,
                                  double alpha) {
  auto rep = FactorDiagKernelRep::Create(v, quality, alpha, 1.0 - alpha);
  EXPECT_TRUE(rep.ok()) << rep.status().ToString();
  return *rep;
}

TEST(KernelRepTest, EntriesBitIdenticalAcrossRanksAndAlphas) {
  Rng rng(41);
  const int n = 12;
  for (int d : {1, 2, 8, 32}) {
    for (double alpha : {0.5, 1.0}) {
      const Matrix v = testutil::RandomMatrix(n, d, &rng);
      const Vector q = PositiveQuality(n, &rng);
      const Matrix primal = MaterializeConditioned(v, q, alpha);
      const FactorDiagKernelRep rep = MakeFactorRep(v, q, alpha);
      ASSERT_EQ(rep.size(), n);

      std::vector<double> row(n), diag(n);
      rep.FillDiag(diag.data());
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(diag[static_cast<size_t>(i)], primal(i, i))
            << "diag " << i << " d=" << d << " alpha=" << alpha;
      }
      for (int j = 0; j < n; ++j) {
        rep.FillRow(j, row.data());
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(row[static_cast<size_t>(i)], primal(j, i))
              << "row " << j << " col " << i << " d=" << d
              << " alpha=" << alpha;
          EXPECT_EQ(rep.Entry(j, i), primal(j, i));
        }
      }
    }
  }
}

TEST(KernelRepTest, GreedySelectionsBitIdenticalAcrossReps) {
  Rng rng(42);
  const int n = 20;
  for (int d : {1, 2, 8, 32}) {
    for (double alpha : {0.5, 1.0}) {
      const Matrix v = testutil::RandomMatrix(n, d, &rng);
      const Vector q = PositiveQuality(n, &rng);
      const FactorDiagKernelRep factor_rep = MakeFactorRep(v, q, alpha);
      const PrimalKernelRep primal_rep(MaterializeConditioned(v, q, alpha));

      GreedyMapOptions opts;
      opts.max_size = 8;
      auto via_factor = GreedyMapInference(factor_rep, opts);
      auto via_primal = GreedyMapInference(primal_rep, opts);
      ASSERT_TRUE(via_factor.ok()) << via_factor.status().ToString();
      ASSERT_TRUE(via_primal.ok()) << via_primal.status().ToString();
      // Identical doubles -> identical branches -> identical sets, in
      // identical selection order. No tolerance.
      EXPECT_EQ(*via_factor, *via_primal) << "d=" << d << " alpha=" << alpha;
      // With alpha < 1 the identity blend keeps the kernel full rank, so
      // greedy must fill the request even past the factor rank.
      if (alpha < 1.0) {
        EXPECT_EQ(static_cast<int>(via_factor->size()), opts.max_size);
      }
    }
  }
}

TEST(KernelRepTest, RankDeficientSelectionsAgreeAndStopAtRank) {
  // Pure-diversity blend (alpha = 1) with d << n: the kernel has rank
  // d, so greedy must stop at d selections on BOTH representations.
  Rng rng(43);
  const int n = 16, d = 3;
  const Matrix v = testutil::RandomMatrix(n, d, &rng);
  const Vector q = PositiveQuality(n, &rng);
  const FactorDiagKernelRep factor_rep = MakeFactorRep(v, q, 1.0);
  const PrimalKernelRep primal_rep(MaterializeConditioned(v, q, 1.0));

  GreedyMapOptions opts;
  opts.max_size = 10;
  auto via_factor = GreedyMapInference(factor_rep, opts);
  auto via_primal = GreedyMapInference(primal_rep, opts);
  ASSERT_TRUE(via_factor.ok());
  ASSERT_TRUE(via_primal.ok());
  EXPECT_EQ(*via_factor, *via_primal);
  EXPECT_EQ(via_factor->size(), static_cast<size_t>(d));
}

TEST(KernelRepTest, DuplicatedRowsNeverSelectedTwiceOnEitherRep) {
  // Items 0/4 and 2/9 are exact duplicates (identical factor rows AND
  // identical quality). A duplicate's residual gain collapses to
  // round-off once its twin is selected, which the relative threshold
  // classifies as zero — so each pair contributes at most one item, and
  // both representations agree on which.
  Rng rng(44);
  const int n = 10, d = 4;
  Matrix v = testutil::RandomMatrix(n, d, &rng);
  Vector q = PositiveQuality(n, &rng);
  for (int c = 0; c < d; ++c) {
    v(4, c) = v(0, c);
    v(9, c) = v(2, c);
  }
  q[4] = q[0];
  q[9] = q[2];

  for (double alpha : {1.0}) {
    const FactorDiagKernelRep factor_rep = MakeFactorRep(v, q, alpha);
    const PrimalKernelRep primal_rep(MaterializeConditioned(v, q, alpha));
    GreedyMapOptions opts;
    opts.max_size = n;
    auto via_factor = GreedyMapInference(factor_rep, opts);
    auto via_primal = GreedyMapInference(primal_rep, opts);
    ASSERT_TRUE(via_factor.ok());
    ASSERT_TRUE(via_primal.ok());
    EXPECT_EQ(*via_factor, *via_primal);
    const bool both_first =
        std::count(via_factor->begin(), via_factor->end(), 0) +
            std::count(via_factor->begin(), via_factor->end(), 4) >
        1;
    const bool both_second =
        std::count(via_factor->begin(), via_factor->end(), 2) +
            std::count(via_factor->begin(), via_factor->end(), 9) >
        1;
    EXPECT_FALSE(both_first) << "duplicate pair {0, 4} selected twice";
    EXPECT_FALSE(both_second) << "duplicate pair {2, 9} selected twice";
  }
}

TEST(KernelRepTest, ExactGainTiesBreakIdenticallyAcrossReps) {
  // Orthogonal factor rows with equal norms and equal quality: every
  // remaining item ties exactly at every step. The argmax scan keeps
  // the FIRST strict maximum, so both representations must walk the
  // same lowest-index-first order — any drift in the tie-break is a
  // bit-exactness violation by construction.
  const int n = 6;
  Matrix v(n, n);
  for (int i = 0; i < n; ++i) v(i, i) = 2.0;
  Vector q(n, 1.5);
  const FactorDiagKernelRep factor_rep = MakeFactorRep(v, q, 1.0);
  const PrimalKernelRep primal_rep(MaterializeConditioned(v, q, 1.0));

  GreedyMapOptions opts;
  opts.max_size = 4;
  auto via_factor = GreedyMapInference(factor_rep, opts);
  auto via_primal = GreedyMapInference(primal_rep, opts);
  ASSERT_TRUE(via_factor.ok());
  ASSERT_TRUE(via_primal.ok());
  EXPECT_EQ(*via_factor, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(*via_factor, *via_primal);
}

TEST(KernelRepTest, StoppingThresholdIsRelativeToKernelScale) {
  // Rank-2 factor over 4 items, scaled to the extremes. The absolute
  // 1e-15 cutoff this replaced either refused uniformly tiny kernels
  // (every gain "vanished" at 1e-150 scale) or ran past the numerical
  // rank on huge ones; the relative rule must select exactly rank = 2
  // items at every scale.
  Matrix base{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {2.0, -1.0}};
  for (double scale : {1e-150, 1.0, 1e150}) {
    Matrix v = base;
    // Scale the FACTOR by sqrt(scale) so the kernel scales by `scale`
    // exactly while staying an exact V V^T.
    v *= std::sqrt(scale);
    const Vector q(4, 1.0);
    const FactorDiagKernelRep factor_rep = MakeFactorRep(v, q, 1.0);
    const PrimalKernelRep primal_rep(MaterializeConditioned(v, q, 1.0));
    GreedyMapOptions opts;
    opts.max_size = 4;
    auto via_factor = GreedyMapInference(factor_rep, opts);
    auto via_primal = GreedyMapInference(primal_rep, opts);
    ASSERT_TRUE(via_factor.ok())
        << "scale " << scale << ": " << via_factor.status().ToString();
    ASSERT_TRUE(via_primal.ok())
        << "scale " << scale << ": " << via_primal.status().ToString();
    EXPECT_EQ(via_factor->size(), 2u) << "scale " << scale;
    EXPECT_EQ(*via_factor, *via_primal) << "scale " << scale;
  }
}

TEST(KernelRepTest, FactorPathNeverMaterializesTheKernel) {
  // Arm the allocation probe around rep construction + greedy: the
  // factor path may allocate O(n d) but never an n x n Matrix. The
  // probe hooks every Matrix constructor, so a regression that
  // materializes anywhere inside the path trips the bound.
  Rng rng(45);
  const int n = 64, d = 4;
  const Matrix v = testutil::RandomMatrix(n, d, &rng);
  const Vector q = PositiveQuality(n, &rng);

  matrix_probe::Arm();
  auto rep = FactorDiagKernelRep::Create(v, q, 0.5, 0.5);
  ASSERT_TRUE(rep.ok());
  GreedyMapOptions opts;
  opts.max_size = 10;
  auto selected = GreedyMapInference(*rep, opts);
  const long factor_peak = matrix_probe::Disarm();
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 10u);
  EXPECT_LT(factor_peak, static_cast<long>(n) * n)
      << "factor-path greedy MAP materialized an n x n kernel";
  EXPECT_LE(factor_peak, static_cast<long>(n) * d);

  // Probe sanity: the primal pipeline DOES allocate n x n, and the
  // probe sees it.
  matrix_probe::Arm();
  const Matrix primal = MaterializeConditioned(v, q, 0.5);
  const long primal_peak = matrix_probe::Disarm();
  EXPECT_GE(primal_peak, static_cast<long>(n) * n);
  (void)primal;
}

TEST(KernelRepTest, PrimalViewAndOwnedAgree) {
  Rng rng(46);
  const Matrix kernel = testutil::RandomPsdKernel(5, &rng);
  const PrimalKernelRep owned(kernel);
  const PrimalKernelRep view = PrimalKernelRep::View(kernel);
  ASSERT_EQ(owned.size(), 5);
  ASSERT_EQ(view.size(), 5);
  std::vector<double> a(5), b(5);
  for (int j = 0; j < 5; ++j) {
    owned.FillRow(j, a.data());
    view.FillRow(j, b.data());
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(a[static_cast<size_t>(i)], kernel(j, i));
      EXPECT_EQ(b[static_cast<size_t>(i)], kernel(j, i));
    }
  }
}

// alpha == 0 collapses the blend to Diag(q)(delta I)Diag(q). The
// O(pool)-memory DiagKernelRep must equal the full materialized primal
// pipeline at that point bit for bit: +-0.0 * K_ij + delta == delta on
// the diagonal (IEEE: adding a signed zero is exact), the (s_i * delta)
// * s_i grouping mirrors AssembleKernel's left-to-right order, and the
// off-diagonal sign-of-zero difference (+0.0 vs the primal's +-0.0)
// never changes a greedy selection (zeros only enter as c^2 = +0.0 and
// x - 0.0 == x).
TEST(KernelRepTest, DiagRepMatchesMaterializedAlphaZeroBitExactly) {
  Rng rng(404);
  for (const int n : {1, 5, 24}) {
    const Matrix v = testutil::RandomMatrix(n, std::min(n, 6), &rng);
    const Vector q = PositiveQuality(n, &rng);
    const Matrix primal = MaterializeConditioned(v, q, /*alpha=*/0.0);
    auto diag = DiagKernelRep::Create(q, 1.0);
    ASSERT_TRUE(diag.ok()) << diag.status().ToString();
    ASSERT_EQ(diag->size(), n);
    std::vector<double> d(static_cast<size_t>(n));
    diag->FillDiag(d.data());
    std::vector<double> row(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(d[static_cast<size_t>(i)], primal(i, i)) << "diag " << i;
      diag->FillRow(i, row.data());
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(diag->Entry(i, j), i == j ? primal(i, j) : 0.0)
            << "entry (" << i << ", " << j << ")";
        EXPECT_EQ(row[static_cast<size_t>(j)], diag->Entry(i, j));
      }
    }
    // The contract serving relies on: identical greedy selections.
    GreedyMapOptions opts;
    opts.max_size = std::min(n, 4);
    auto from_diag = GreedyMapInference(*diag, opts);
    auto from_primal = GreedyMapInference(PrimalKernelRep(primal), opts);
    ASSERT_TRUE(from_diag.ok());
    ASSERT_TRUE(from_primal.ok());
    EXPECT_EQ(*from_diag, *from_primal) << "n = " << n;
  }
}

TEST(KernelRepTest, CreateValidationErrors) {
  const Matrix v = Matrix(3, 2, 1.0);
  // Scale length mismatch.
  EXPECT_FALSE(FactorDiagKernelRep::Create(v, Vector(2, 1.0), 1.0, 0.0).ok());
  // Negative / non-finite blend terms would break PSD-ness.
  EXPECT_FALSE(FactorDiagKernelRep::Create(v, Vector(3, 1.0), -0.1, 0.0).ok());
  EXPECT_FALSE(FactorDiagKernelRep::Create(v, Vector(3, 1.0), 1.0, -1.0).ok());
  EXPECT_FALSE(FactorDiagKernelRep::Create(
                   v, Vector(3, 1.0), std::nan(""), 0.0)
                   .ok());
  // Non-finite scale.
  Vector bad(3, 1.0);
  bad[1] = std::nan("");
  EXPECT_FALSE(FactorDiagKernelRep::Create(v, bad, 1.0, 0.0).ok());
  // Empty factor.
  EXPECT_FALSE(
      FactorDiagKernelRep::Create(Matrix(0, 0), Vector(), 1.0, 0.0).ok());
  // DiagKernelRep: empty scale, non-finite scale, bad delta.
  EXPECT_FALSE(DiagKernelRep::Create(Vector(), 1.0).ok());
  EXPECT_FALSE(DiagKernelRep::Create(bad, 1.0).ok());
  EXPECT_FALSE(DiagKernelRep::Create(Vector(3, 1.0), -0.5).ok());
  EXPECT_FALSE(DiagKernelRep::Create(Vector(3, 1.0), std::nan("")).ok());
  EXPECT_TRUE(DiagKernelRep::Create(Vector(3, 1.0), 0.0).ok());
}

}  // namespace
}  // namespace lkpdpp
