#include "reference_kernels.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "linalg/decomposition.hpp"

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

Matrix reference_cholesky_solve(const Matrix& l, const Matrix& b) {
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const std::vector<double> col = b.column(c);
    const std::vector<double> y = forward_substitute(l, col);
    const std::vector<double> sol = backward_substitute(l, y);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = sol[r];
  }
  return x;
}

}  // namespace effitest::linalg::kernels
