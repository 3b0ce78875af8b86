// Compressed sparse row matrix for graph propagation.
//
// GCN backbones multiply the (symmetrically normalized) user-item
// adjacency against dense embedding matrices each layer; CSR keeps that
// O(nnz * d) instead of O((N+M)^2 * d).
//
// Both dense products run one row kernel: output row r sums its terms
// in stored order, on whichever lane owns r. A^T is a second CSR built
// once at construction (so the matrix holds its entries twice), sorted
// stably by column: each of its rows lists its terms in ascending source
// row, the order a serial scatter over A's rows adds them. Splitting the
// output rows over a pool therefore never changes a sum, and both
// products are bit-identical at any thread count.

#ifndef LKPDPP_LINALG_SPARSE_H_
#define LKPDPP_LINALG_SPARSE_H_

#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"

namespace lkpdpp {

/// Immutable CSR matrix of doubles.
class SparseMatrix {
 public:
  /// A coordinate-format entry used during construction.
  struct Triplet {
    int row;
    int col;
    double value;
  };

  /// Builds a CSR matrix from unordered triplets. Duplicate (row, col)
  /// entries are summed. Fails on out-of-range indices.
  static Result<SparseMatrix> FromTriplets(int rows, int cols,
                                           std::vector<Triplet> triplets);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int nnz() const { return static_cast<int>(values_.size()); }

  /// Sparse x dense product: (rows x cols) * (cols x d) -> (rows x d).
  /// With a pool, the output rows are split across its lanes.
  Matrix Multiply(const Matrix& dense, ThreadPool* pool = nullptr) const;

  /// Transposed product: A^T * dense, shape (cols x d), split like
  /// Multiply.
  Matrix MultiplyTransposed(const Matrix& dense,
                            ThreadPool* pool = nullptr) const;

  /// Sparse x vector.
  Vector Multiply(const Vector& x) const;

  /// Row sums (useful for degree normalization).
  Vector RowSums() const;

  /// Densifies; intended for tests on tiny matrices.
  Matrix ToDense() const;

  const std::vector<int>& row_offsets() const { return row_offsets_; }
  const std::vector<int>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  SparseMatrix(int rows, int cols, std::vector<int> row_offsets,
               std::vector<int> col_indices, std::vector<double> values);

  int rows_;
  int cols_;
  std::vector<int> row_offsets_;
  std::vector<int> col_indices_;
  std::vector<double> values_;
  // A^T in CSR: per column, the rows holding an entry, ascending.
  std::vector<int> col_offsets_;
  std::vector<int> row_indices_;
  std::vector<double> col_values_;
};

}  // namespace lkpdpp

#endif  // LKPDPP_LINALG_SPARSE_H_
