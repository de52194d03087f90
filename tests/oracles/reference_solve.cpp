#include "reference_solve.hpp"

#include <cstddef>
#include <span>
#include <vector>

namespace effitest::linalg {

namespace {

/// Solve L y = b for lower-triangular L.
std::vector<double> forward_substitute(const Matrix& l,
                                       std::span<const double> b) {
  const std::size_t n = l.rows();
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * y[k];
    y[i] = v / l(i, i);
  }
  return y;
}

/// Solve L^T x = y for lower-triangular L.
std::vector<double> backward_substitute(const Matrix& l,
                                        std::span<const double> y) {
  const std::size_t n = l.rows();
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l(k, ii) * x[k];
    x[ii] = v / l(ii, ii);
  }
  return x;
}

}  // namespace

Matrix reference_cholesky_solve(const Matrix& l, const Matrix& b) {
  Matrix x(b.rows(), b.cols());
  std::vector<double> col(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
    const std::vector<double> sol =
        backward_substitute(l, forward_substitute(l, col));
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = sol[r];
  }
  return x;
}

}  // namespace effitest::linalg
