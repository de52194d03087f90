#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace effitest::linalg {

std::size_t EigenDecomposition::components_for_coverage(double coverage) const {
  if (values.empty()) return 0;
  double total = 0.0;
  for (double v : values) total += std::max(v, 0.0);
  if (total <= 0.0) return 1;
  double acc = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    acc += std::max(values[i], 0.0);
    if (acc >= coverage * total) return i + 1;
  }
  return values.size();
}

namespace {

// The EISPACK tred2/tql2 pair as JAMA states it, on V(i, j) = w[j * n + i]:
// the working matrix is held transposed so that every O(n) inner loop of
// both routines walks one contiguous row of `w` (row j of w is column j of
// JAMA's V, i.e. eigenvector j at the end).
class TransposedView {
 public:
  TransposedView(double* w, std::size_t n) : w_(w), n_(n) {}
  double& operator()(std::size_t i, std::size_t j) { return w_[j * n_ + i]; }
  double* col(std::size_t j) { return w_ + j * n_; }

 private:
  double* w_;
  std::size_t n_;
};

/// Householder reduction of the symmetric V to tridiagonal form: d gets the
/// diagonal, e the subdiagonal in e[1..n-1], and V the accumulated
/// orthogonal transformation.
void tred2(TransposedView v, std::size_t n, std::vector<double>& d,
           std::vector<double>& e) {
  for (std::size_t j = 0; j < n; ++j) d[j] = v(n - 1, j);

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    } else {
      // Generate the Householder vector.
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;

      // Apply the similarity transformation to the remaining columns.
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        v(j, i) = f;
        const double* vj = v.col(j);
        g = e[j] + vj[j] * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += vj[k] * d[k];
          e[k] += vj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        double* vj = v.col(j);
        for (std::size_t k = j; k < i; ++k) vj[k] -= f * e[k] + g * d[k];
        d[j] = vj[i - 1];
        vj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the transformations.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    double* vi1 = v.col(i + 1);
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = vi1[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double* vj = v.col(j);
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += vi1[k] * vj[k];
        for (std::size_t k = 0; k <= i; ++k) vj[k] -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) vi1[k] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal (d, e) from tred2: d becomes the
/// eigenvalues (unsorted) and V's columns the matching eigenvectors.
void tql2(TransposedView v, std::size_t n, std::vector<double>& d,
          std::vector<double>& e) {
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  const double eps = std::ldexp(1.0, -52);
  double f = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    // Find the first negligible subdiagonal element at or after l.
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (m < n - 1 && std::abs(e[m]) > eps * tst1) ++m;

    // If m == l, d[l] is already an eigenvalue; otherwise iterate.
    if (m > l) {
      std::size_t iter = 0;
      do {
        if (++iter > 64) {
          throw LinalgError("eigen_symmetric: QL iteration did not converge");
        }
        // Compute the implicit shift.
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0.0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // Implicit QL transformation.
        p = d[m];
        double c = 1.0;
        double c2 = c;
        double c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0;
        double s2 = 0.0;
        for (std::size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);

          // Accumulate the rotation into eigenvectors i and i+1.
          double* vi = v.col(i);
          double* vi1 = v.col(i + 1);
          for (std::size_t k = 0; k < n; ++k) {
            const double t = vi1[k];
            vi1[k] = s * vi[k] + c * t;
            vi[k] = c * vi[k] - s * t;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }
}

}  // namespace

EigenDecomposition eigen_symmetric(Matrix a) {
  if (!a.is_square()) {
    throw LinalgError("eigen_symmetric requires square matrix");
  }
  const std::size_t n = a.rows();
  if (n == 0) return {std::vector<double>{}, Matrix()};

  // `a` becomes the transposed working matrix in place; tred2 reads only
  // V(k, j) with k >= j, i.e. the upper triangle of `a`.
  std::vector<double> values(n);
  std::vector<double> e(n);
  const TransposedView v(a.data().data(), n);
  tred2(v, n, values, e);
  tql2(v, n, values, e);

  // Sort eigenpairs by descending eigenvalue; eigenvector j is row j of `a`.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return values[x] > values[y]; });

  std::vector<double> sorted_values(n);
  Matrix sorted_vectors(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    sorted_values[j] = values[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      sorted_vectors(i, j) = a(order[j], i);
    }
  }
  return {std::move(sorted_values), std::move(sorted_vectors)};
}

}  // namespace effitest::linalg
