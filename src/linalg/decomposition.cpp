#include "linalg/decomposition.hpp"

#include <cmath>
#include <cstddef>
#include <utility>

namespace effitest::linalg {

namespace {

/// Left-looking Cholesky of a + diag_add*I. Each element subtracts its
/// k = 0..j-1 products in ascending order and divides last. False on a
/// non-positive (or non-finite) pivot, leaving l_out untouched.
bool try_factor(const Matrix& a, double diag_add, Matrix& l_out) {
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

}  // namespace

Matrix Cholesky::solve(const Matrix& b) const {
  const std::size_t n = l.rows();
  if (b.rows() != n) {
    throw LinalgError("Cholesky::solve dimension mismatch");
  }
  Matrix x = b;
  const std::size_t m = x.cols();
  const double* pl = l.data().data();
  double* px = x.data().data();
  // Every right-hand side advances together, one whole row at a time, so
  // the inner loop over columns is contiguous. Element (i, c) still
  // subtracts its k terms in ascending order and divides last, the order
  // of a per-column substitution, so each column's bits are the same.
  for (std::size_t i = 0; i < n; ++i) {  // L Y = B
    double* xi = px + i * m;
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = pl[i * n + k];
      const double* xk = px + k * m;
      for (std::size_t c = 0; c < m; ++c) xi[c] -= lik * xk[c];
    }
    const double diag = pl[i * n + i];
    for (std::size_t c = 0; c < m; ++c) xi[c] /= diag;
  }
  for (std::size_t i = n; i-- > 0;) {  // L^T X = Y
    double* xi = px + i * m;
    for (std::size_t k = i + 1; k < n; ++k) {
      const double lki = pl[k * n + i];
      const double* xk = px + k * m;
      for (std::size_t c = 0; c < m; ++c) xi[c] -= lki * xk[c];
    }
    const double diag = pl[i * n + i];
    for (std::size_t c = 0; c < m; ++c) xi[c] /= diag;
  }
  return x;
}

Cholesky cholesky(const Matrix& a, double jitter) {
  if (!a.is_square()) throw LinalgError("cholesky requires square matrix");
  Matrix l;
  if (try_factor(a, 0.0, l)) return Cholesky{std::move(l)};
  if (jitter > 0.0) {
    for (double add = jitter; add <= 100.0 * jitter; add *= 10.0) {
      if (try_factor(a, add, l)) return Cholesky{std::move(l)};
    }
  }
  throw LinalgError("cholesky: matrix is not positive definite");
}

}  // namespace effitest::linalg
