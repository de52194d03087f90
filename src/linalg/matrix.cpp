#include "linalg/matrix.hpp"

#include <cmath>
#include <ostream>

namespace effitest::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw LinalgError("Matrix initializer rows have unequal lengths");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(std::span<const double> diag) {
  Matrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

std::span<double> Matrix::row(std::size_t r) {
  if (r >= rows_) throw LinalgError("Matrix::row index out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  if (r >= rows_) throw LinalgError("Matrix::row index out of range");
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::select(std::span<const std::size_t> row_idx,
                      std::span<const std::size_t> col_idx) const {
  Matrix out(row_idx.size(), col_idx.size());
  for (std::size_t r = 0; r < row_idx.size(); ++r) {
    if (row_idx[r] >= rows_) throw LinalgError("Matrix::select row index");
    for (std::size_t c = 0; c < col_idx.size(); ++c) {
      if (col_idx[c] >= cols_) throw LinalgError("Matrix::select col index");
      out(r, c) = (*this)(row_idx[r], col_idx[c]);
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out(c, r) = (*this)(r, c);
    }
  }
  return out;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw LinalgError("Matrix * dimension mismatch");
  const std::size_t n = rhs.cols_;
  Matrix out(rows_, n);
  for (std::size_t i = 0; i < rows_; ++i) {
    double* out_row = out.data_.data() + i * n;
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* rhs_row = rhs.data_.data() + k * n;
      for (std::size_t j = 0; j < n; ++j) out_row[j] += aik * rhs_row[j];
    }
  }
  return out;
}

bool Matrix::approx_equal(const Matrix& rhs, double tol) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - rhs.data_[i]) > tol) return false;
  }
  return true;
}

void Matrix::symmetrize() {
  if (!is_square()) throw LinalgError("symmetrize requires square matrix");
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = r + 1; c < cols_; ++c) {
      const double avg = 0.5 * ((*this)(r, c) + (*this)(c, r));
      (*this)(r, c) = avg;
      (*this)(c, r) = avg;
    }
  }
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << m(r, c) << (c + 1 < m.cols() ? ", " : "");
    }
    os << (r + 1 < m.rows() ? ";\n" : "]");
  }
  return os;
}

}  // namespace effitest::linalg
