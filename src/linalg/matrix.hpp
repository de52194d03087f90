#pragma once
// Dense row-major matrix.
//
// This is the numeric workhorse underneath the statistical machinery of
// EffiTest: covariance matrices, PCA and conditional-Gaussian gains all sit
// on top of this type.  Sizes in this project are
// modest (up to a few thousand rows), so a straightforward dense
// implementation is both sufficient and easy to audit.

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace effitest::linalg {

/// Error raised when a linear-algebra operation receives incompatible or
/// numerically unusable input (dimension mismatch, non-SPD matrix, ...).
class LinalgError : public std::runtime_error {
 public:
  explicit LinalgError(const std::string& what) : std::runtime_error(what) {}
};

/// Dense row-major matrix of doubles.
///
/// Invariants: data_.size() == rows_ * cols_ at all times.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, all entries set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Build from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  [[nodiscard]] static Matrix identity(std::size_t n);

  /// Diagonal matrix from a vector.
  [[nodiscard]] static Matrix diagonal(std::span<const double> diag);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// View of row r as a contiguous span.
  [[nodiscard]] std::span<double> row(std::size_t r);
  [[nodiscard]] std::span<const double> row(std::size_t r) const;

  /// Raw storage (row-major).
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }
  [[nodiscard]] std::span<double> data() noexcept { return data_; }

  /// Submatrix formed by the given row and column index sets (in order).
  [[nodiscard]] Matrix select(std::span<const std::size_t> row_idx,
                              std::span<const std::size_t> col_idx) const;

  [[nodiscard]] Matrix transposed() const;

  /// Matrix product (this * rhs): the seed i-k-j loop, each element
  /// accumulated k ascending.
  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;

  /// Frobenius-norm distance check against another matrix.
  [[nodiscard]] bool approx_equal(const Matrix& rhs, double tol = 1e-9) const;

  /// Force exact symmetry by averaging with the transpose (in place).
  void symmetrize();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace effitest::linalg
