#include "linalg/sparse.h"

#include <algorithm>

#include "common/string_util.h"

namespace lkpdpp {

namespace {

// Fewest output rows a lane claims at once: a row costs its nnz x d
// multiply-adds (a few hundred on the training graphs), so smaller
// chunks cost more to hand out than to compute.
constexpr int kMinRowsPerChunk = 64;

// out = A * dense for A in CSR form; see sparse.h for the row order.
Matrix MultiplyCsr(const std::vector<int>& offsets,
                   const std::vector<int>& indices,
                   const std::vector<double>& values, const Matrix& dense,
                   ThreadPool* pool) {
  const int rows = static_cast<int>(offsets.size()) - 1;
  Matrix out(rows, dense.cols());
  ParallelForOrSerial(pool, rows, kMinRowsPerChunk, [&](int r) {
    double* out_row = out.RowPtr(r);
    for (int p = offsets[r]; p < offsets[r + 1]; ++p) {
      const double v = values[p];
      const double* in_row = dense.RowPtr(indices[p]);
      for (int c = 0; c < dense.cols(); ++c) out_row[c] += v * in_row[c];
    }
  });
  return out;
}

}  // namespace

SparseMatrix::SparseMatrix(int rows, int cols, std::vector<int> row_offsets,
                           std::vector<int> col_indices,
                           std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      values_(std::move(values)),
      col_offsets_(cols + 1, 0),
      row_indices_(values_.size()),
      col_values_(values_.size()) {
  // Stable counting sort by column: rows are scanned in ascending order.
  for (int c : col_indices_) ++col_offsets_[c + 1];
  for (int c = 0; c < cols_; ++c) col_offsets_[c + 1] += col_offsets_[c];
  std::vector<int> next(col_offsets_.begin(), col_offsets_.end() - 1);
  for (int r = 0; r < rows_; ++r) {
    for (int p = row_offsets_[r]; p < row_offsets_[r + 1]; ++p) {
      const int q = next[col_indices_[p]]++;
      row_indices_[q] = r;
      col_values_[q] = values_[p];
    }
  }
}

Result<SparseMatrix> SparseMatrix::FromTriplets(
    int rows, int cols, std::vector<Triplet> triplets) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative sparse matrix shape");
  }
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      return Status::OutOfRange(
          StrFormat("triplet (%d,%d) outside %dx%d", t.row, t.col, rows,
                    cols));
    }
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  std::vector<int> row_offsets(rows + 1, 0);
  std::vector<int> col_indices;
  std::vector<double> values;
  col_indices.reserve(triplets.size());
  values.reserve(triplets.size());

  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    col_indices.push_back(triplets[i].col);
    values.push_back(sum);
    ++row_offsets[triplets[i].row + 1];
    i = j;
  }
  for (int r = 0; r < rows; ++r) row_offsets[r + 1] += row_offsets[r];

  return SparseMatrix(rows, cols, std::move(row_offsets),
                      std::move(col_indices), std::move(values));
}

Matrix SparseMatrix::Multiply(const Matrix& dense, ThreadPool* pool) const {
  LKP_CHECK_EQ(cols_, dense.rows());
  return MultiplyCsr(row_offsets_, col_indices_, values_, dense, pool);
}

Matrix SparseMatrix::MultiplyTransposed(const Matrix& dense,
                                        ThreadPool* pool) const {
  LKP_CHECK_EQ(rows_, dense.rows());
  return MultiplyCsr(col_offsets_, row_indices_, col_values_, dense, pool);
}

Vector SparseMatrix::Multiply(const Vector& x) const {
  LKP_CHECK_EQ(cols_, x.size());
  Vector out(rows_);
  for (int r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (int p = row_offsets_[r]; p < row_offsets_[r + 1]; ++p) {
      s += values_[p] * x[col_indices_[p]];
    }
    out[r] = s;
  }
  return out;
}

Vector SparseMatrix::RowSums() const {
  Vector out(rows_);
  for (int r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (int p = row_offsets_[r]; p < row_offsets_[r + 1]; ++p) {
      s += values_[p];
    }
    out[r] = s;
  }
  return out;
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int p = row_offsets_[r]; p < row_offsets_[r + 1]; ++p) {
      out(r, col_indices_[p]) += values_[p];
    }
  }
  return out;
}

}  // namespace lkpdpp
