#include "reference_kernels.hpp"

#include <cmath>
#include <utility>
#include <vector>

namespace effitest::linalg::kernels {

bool reference_cholesky(const Matrix& a, double diag_add, Matrix& l_out) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + diag_add;
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / ljj;
    }
  }
  l_out = std::move(l);
  return true;
}

std::vector<double> reference_forward_substitute(const Matrix& l,
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

std::vector<double> reference_backward_substitute(const Matrix& l,
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

std::vector<double> reference_cholesky_solve(const Matrix& l,
                                             std::span<const double> b) {
  return reference_backward_substitute(l, reference_forward_substitute(l, b));
}

Matrix reference_cholesky_solve(const Matrix& l, const Matrix& b) {
  Matrix x(b.rows(), b.cols());
  std::vector<double> col(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
    const std::vector<double> sol = reference_cholesky_solve(l, col);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = sol[r];
  }
  return x;
}

}  // namespace effitest::linalg::kernels
