// Tests for the CSR sparse matrix and graph adjacency construction.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "linalg/sparse.h"
#include "models/graph_utils.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

// The scatter A^T * dense that MultiplyTransposed replaced: rows of A in
// ascending order, each adding its terms into the output rows of its
// columns. The row kernel over the transposed CSR must match it bit for
// bit.
Matrix ScatterTransposed(const SparseMatrix& a, const Matrix& dense) {
  Matrix out(a.cols(), dense.cols());
  for (int r = 0; r < a.rows(); ++r) {
    const double* in_row = dense.RowPtr(r);
    for (int p = a.row_offsets()[r]; p < a.row_offsets()[r + 1]; ++p) {
      const double v = a.values()[p];
      double* out_row = out.RowPtr(a.col_indices()[p]);
      for (int c = 0; c < dense.cols(); ++c) out_row[c] += v * in_row[c];
    }
  }
  return out;
}

void ExpectBitEqual(const Matrix& a, const Matrix& b,
                    const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a(r, c), b(r, c)) << what << " differs at (" << r << ","
                                  << c << ")";
    }
  }
}

TEST(SparseTest, FromTripletsBasic) {
  auto m = SparseMatrix::FromTriplets(
      2, 3, {{0, 1, 2.0}, {1, 0, -1.0}, {1, 2, 4.0}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 2);
  EXPECT_EQ(m->cols(), 3);
  EXPECT_EQ(m->nnz(), 3);
  const Matrix dense = m->ToDense();
  EXPECT_DOUBLE_EQ(dense(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(dense(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(dense(0, 0), 0.0);
}

TEST(SparseTest, DuplicateTripletsSum) {
  auto m = SparseMatrix::FromTriplets(2, 2,
                                      {{0, 0, 1.0}, {0, 0, 2.5}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->nnz(), 1);
  EXPECT_DOUBLE_EQ(m->ToDense()(0, 0), 3.5);
}

TEST(SparseTest, OutOfRangeTripletRejected) {
  EXPECT_EQ(SparseMatrix::FromTriplets(2, 2, {{2, 0, 1.0}})
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(SparseMatrix::FromTriplets(2, 2, {{0, -1, 1.0}}).ok());
  EXPECT_FALSE(SparseMatrix::FromTriplets(-1, 2, {}).ok());
}

TEST(SparseTest, EmptyMatrixWorks) {
  auto m = SparseMatrix::FromTriplets(3, 3, {});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->nnz(), 0);
  Matrix dense(3, 2, 1.0);
  EXPECT_DOUBLE_EQ(m->Multiply(dense).MaxAbs(), 0.0);
}

TEST(SparseTest, MultiplyMatchesDense) {
  Rng rng(1);
  std::vector<SparseMatrix::Triplet> triplets;
  for (int i = 0; i < 40; ++i) {
    triplets.push_back(
        {rng.UniformInt(8), rng.UniformInt(6), rng.Normal()});
  }
  auto sp = SparseMatrix::FromTriplets(8, 6, triplets);
  ASSERT_TRUE(sp.ok());
  Matrix dense = testutil::RandomMatrix(6, 4, &rng);
  const Matrix expected = MatMul(sp->ToDense(), dense);
  EXPECT_LT((sp->Multiply(dense) - expected).MaxAbs(), 1e-12);
}

TEST(SparseTest, MultiplyTransposedMatchesDense) {
  Rng rng(2);
  std::vector<SparseMatrix::Triplet> triplets;
  for (int i = 0; i < 30; ++i) {
    triplets.push_back(
        {rng.UniformInt(7), rng.UniformInt(5), rng.Normal()});
  }
  auto sp = SparseMatrix::FromTriplets(7, 5, triplets);
  ASSERT_TRUE(sp.ok());
  Matrix dense = testutil::RandomMatrix(7, 3, &rng);
  const Matrix expected = MatMul(sp->ToDense().Transpose(), dense);
  EXPECT_LT((sp->MultiplyTransposed(dense) - expected).MaxAbs(), 1e-12);
}

TEST(SparseTest, PooledProductsBitIdenticalAtAnyThreadCount) {
  // Non-square and non-symmetric, with duplicate triplets, one empty row
  // and one empty column; at 2,600 x 2,400 both products split into
  // several chunks per lane of even a 9-lane pool.
  constexpr int kRows = 2600;
  constexpr int kCols = 2400;
  constexpr int kEmptyRow = 1234;
  constexpr int kEmptyCol = 777;
  Rng rng(4);
  std::vector<SparseMatrix::Triplet> triplets;
  while (triplets.size() < 40000) {
    const int r = rng.UniformInt(kRows);
    const int c = rng.UniformInt(kCols);
    if (r != kEmptyRow && c != kEmptyCol) {
      triplets.push_back({r, c, rng.Normal()});
    }
  }
  for (int i = 0; i < 500; ++i) {
    triplets.push_back({triplets[i].row, triplets[i].col, rng.Normal()});
  }
  auto sp = SparseMatrix::FromTriplets(kRows, kCols, triplets);
  ASSERT_TRUE(sp.ok());
  ASSERT_LT(sp->nnz(), static_cast<int>(triplets.size()));  // Summed.
  ASSERT_EQ(sp->row_offsets()[kEmptyRow], sp->row_offsets()[kEmptyRow + 1]);
  for (int c : sp->col_indices()) ASSERT_NE(c, kEmptyCol);

  const Matrix x = testutil::RandomMatrix(kCols, 8, &rng);
  const Matrix y = testutil::RandomMatrix(kRows, 8, &rng);
  const Matrix serial = sp->Multiply(x);
  const Matrix scatter = ScatterTransposed(*sp, y);
  ExpectBitEqual(sp->MultiplyTransposed(y), scatter, "serial transposed");
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    const std::string what = "threads=" + std::to_string(threads);
    const long tasks0 = testutil::PoolTasks();
    ExpectBitEqual(sp->Multiply(x, &pool), serial, what + " Multiply");
    ExpectBitEqual(sp->MultiplyTransposed(y, &pool), scatter,
                   what + " MultiplyTransposed");
    // Each product handed every worker a helper task: it split into at
    // least as many chunks as the pool has lanes.
    EXPECT_EQ(testutil::PoolTasks() - tasks0, 2L * threads) << what;
  }
}

TEST(SparseTest, MatVecAndRowSums) {
  auto sp = SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 3.0}, {1, 1, -2.0}});
  ASSERT_TRUE(sp.ok());
  Vector x{1.0, 2.0, 3.0};
  Vector y = sp->Multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 10.0);
  EXPECT_DOUBLE_EQ(y[1], -4.0);
  Vector sums = sp->RowSums();
  EXPECT_DOUBLE_EQ(sums[0], 4.0);
  EXPECT_DOUBLE_EQ(sums[1], -2.0);
}

TEST(AdjacencyTest, NormalizedAdjacencyIsSymmetricAndBipartite) {
  SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 50;
  cfg.num_events = 4000;
  auto ds = GenerateSyntheticDataset(cfg);
  ASSERT_TRUE(ds.ok());
  auto adj = BuildNormalizedAdjacency(*ds);
  ASSERT_TRUE(adj.ok());
  const int n = ds->num_users();
  const int size = n + ds->num_items();
  EXPECT_EQ(adj->rows(), size);
  EXPECT_EQ(adj->cols(), size);

  const Matrix dense = adj->ToDense();
  EXPECT_TRUE(dense.IsSymmetric(1e-12));
  // No user-user or item-item edges.
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) EXPECT_DOUBLE_EQ(dense(u, v), 0.0);
  }
  // Weight = 1/sqrt(du*di) for each train edge.
  const int u0 = 0;
  ASSERT_FALSE(ds->TrainItems(u0).empty());
  const int i0 = ds->TrainItems(u0)[0];
  int di = 0;
  for (int u = 0; u < n; ++u) {
    for (int item : ds->TrainItems(u)) {
      if (item == i0) ++di;
    }
  }
  const double expected =
      1.0 / std::sqrt(static_cast<double>(ds->TrainItems(u0).size()) * di);
  EXPECT_NEAR(dense(u0, n + i0), expected, 1e-12);
}

TEST(AdjacencyTest, SelfLoopsOptional) {
  SyntheticConfig cfg;
  cfg.num_users = 30;
  cfg.num_items = 40;
  cfg.num_events = 3000;
  auto ds = GenerateSyntheticDataset(cfg);
  ASSERT_TRUE(ds.ok());
  auto plain = BuildNormalizedAdjacency(*ds, false);
  auto looped = BuildNormalizedAdjacency(*ds, true);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(looped.ok());
  EXPECT_DOUBLE_EQ(plain->ToDense()(0, 0), 0.0);
  EXPECT_GT(looped->ToDense()(0, 0), 0.0);
}

}  // namespace
}  // namespace lkpdpp
