#include "linalg/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace effitest::linalg::kernels {

namespace {

/// Serialize the fan-out when the flop count cannot amortize pool
/// scheduling. Purely an overhead knob — results are identical either way.
[[nodiscard]] std::size_t fanout_threads(std::size_t flops,
                                         const KernelOptions& opts) {
  return flops < kSerialFlops ? 1 : opts.threads;
}

}  // namespace

void trsm_lower(const Matrix& l, Matrix& b, const KernelOptions& opts) {
  const std::size_t n = l.rows();
  if (!l.is_square() || b.rows() != n) {
    throw LinalgError("kernels::trsm_lower dimension mismatch");
  }
  const std::size_t m = b.cols();
  if (n == 0 || m == 0) return;
  const double* pl = l.data().data();
  double* pb = b.data().data();

  const std::size_t col_blocks = (m + kColBlock - 1) / kColBlock;
  parallel::ForOptions fopts;
  fopts.threads = fanout_threads(n * n * m / 2, opts);
  parallel::deterministic_for(col_blocks, fopts, [&](std::size_t cb) {
    const std::size_t c0 = cb * kColBlock;
    const std::size_t c1 = std::min(c0 + kColBlock, m);
    // All right-hand sides of the block advance together: the inner loop
    // over columns is contiguous and vectorizes, and L streams through
    // cache once per block instead of once per column. Element (i, c)
    // still subtracts k = 0..i-1 in ascending order and divides last —
    // the per-column reference_forward_substitute order.
    for (std::size_t i = 0; i < n; ++i) {
      const double* lrow = pl + i * n;
      double* bi = pb + i * m;
      for (std::size_t k = 0; k < i; ++k) {
        const double lik = lrow[k];
        const double* bk = pb + k * m;
        for (std::size_t c = c0; c < c1; ++c) bi[c] -= lik * bk[c];
      }
      const double diag = lrow[i];
      for (std::size_t c = c0; c < c1; ++c) bi[c] /= diag;
    }
  });
}

void trsm_lower_transposed(const Matrix& l, Matrix& b,
                           const KernelOptions& opts) {
  const std::size_t n = l.rows();
  if (!l.is_square() || b.rows() != n) {
    throw LinalgError("kernels::trsm_lower_transposed dimension mismatch");
  }
  const std::size_t m = b.cols();
  if (n == 0 || m == 0) return;
  const double* pl = l.data().data();
  double* pb = b.data().data();

  const std::size_t col_blocks = (m + kColBlock - 1) / kColBlock;
  parallel::ForOptions fopts;
  fopts.threads = fanout_threads(n * n * m / 2, opts);
  parallel::deterministic_for(col_blocks, fopts, [&](std::size_t cb) {
    const std::size_t c0 = cb * kColBlock;
    const std::size_t c1 = std::min(c0 + kColBlock, m);
    for (std::size_t ii = n; ii-- > 0;) {
      double* bi = pb + ii * m;
      for (std::size_t k = ii + 1; k < n; ++k) {
        const double lki = pl[k * n + ii];
        const double* bk = pb + k * m;
        for (std::size_t c = c0; c < c1; ++c) bi[c] -= lki * bk[c];
      }
      const double diag = pl[ii * n + ii];
      for (std::size_t c = c0; c < c1; ++c) bi[c] /= diag;
    }
  });
}

bool cholesky_blocked(const Matrix& a, double diag_add, Matrix& l_out,
                      const KernelOptions& opts) {
  if (!a.is_square()) {
    throw LinalgError("kernels::cholesky_blocked requires square matrix");
  }
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) l(i, j) = a(i, j);
    l(i, i) = a(i, i) + diag_add;
  }
  double* pl = l.data().data();

  parallel::ForOptions fopts;
  fopts.threads = fanout_threads(n * n * n / 3, opts);

  for (std::size_t p0 = 0; p0 < n; p0 += kRowBlock) {
    const std::size_t p1 = std::min(p0 + kRowBlock, n);

    // Panel factorization: columns [p0, p1) over all rows below. Earlier
    // panels' contributions (k < p0) were already subtracted by the
    // trailing updates below, so per element the subtraction order is
    // globally k-ascending — the reference left-looking order.
    for (std::size_t j = p0; j < p1; ++j) {
      const double* lj = pl + j * n;
      double diag = lj[j];
      for (std::size_t k = p0; k < j; ++k) diag -= lj[k] * lj[k];
      if (diag <= 0.0 || !std::isfinite(diag)) return false;
      const double ljj = std::sqrt(diag);
      pl[j * n + j] = ljj;
      // Two rows per step: their chains share the l(j, k) loads and
      // interleave, doubling FMA throughput on the panel's hot loop.
      std::size_t i = j + 1;
      for (; i + 2 <= n; i += 2) {
        double* li0 = pl + i * n;
        double* li1 = pl + (i + 1) * n;
        double v0 = li0[j];
        double v1 = li1[j];
        for (std::size_t k = p0; k < j; ++k) {
          const double ljk = lj[k];
          v0 -= li0[k] * ljk;
          v1 -= li1[k] * ljk;
        }
        li0[j] = v0 / ljj;
        li1[j] = v1 / ljj;
      }
      for (; i < n; ++i) {
        double* li = pl + i * n;
        double v = li[j];
        for (std::size_t k = p0; k < j; ++k) v -= li[k] * lj[k];
        li[j] = v / ljj;
      }
    }
    if (p1 >= n) break;

    // Trailing update (SYRK-style): l(i, j) -= sum_{k in [p0, p1)}
    // l(i, k) l(j, k) for the lower triangle i, j >= p1. Tiles write
    // disjoint elements, so they fan out over the pool; within an element
    // k ascends, keeping the global order intact.
    const std::size_t trail = n - p1;
    const std::size_t blocks = (trail + kRowBlock - 1) / kRowBlock;
    std::vector<std::pair<std::size_t, std::size_t>> tiles;
    tiles.reserve(blocks * (blocks + 1) / 2);
    for (std::size_t ib = 0; ib < blocks; ++ib) {
      for (std::size_t jb = 0; jb <= ib; ++jb) tiles.emplace_back(ib, jb);
    }
    parallel::deterministic_for(tiles.size(), fopts, [&](std::size_t t) {
      const auto [ib, jb] = tiles[t];
      const std::size_t i1 = std::min(p1 + (ib + 1) * kRowBlock, n);
      const std::size_t jend = std::min(p1 + (jb + 1) * kRowBlock, n);
      for (std::size_t i = p1 + ib * kRowBlock; i < i1; ++i) {
        const double* li = pl + i * n;
        double* wrow = pl + i * n;
        const std::size_t j1 = std::min(jend, i + 1);
        std::size_t j = p1 + jb * kRowBlock;
        for (; j + 4 <= j1; j += 4) {
          const double* r0 = pl + j * n;
          const double* r1 = pl + (j + 1) * n;
          const double* r2 = pl + (j + 2) * n;
          const double* r3 = pl + (j + 3) * n;
          double acc0 = wrow[j];
          double acc1 = wrow[j + 1];
          double acc2 = wrow[j + 2];
          double acc3 = wrow[j + 3];
          for (std::size_t k = p0; k < p1; ++k) {
            const double lik = li[k];
            acc0 -= lik * r0[k];
            acc1 -= lik * r1[k];
            acc2 -= lik * r2[k];
            acc3 -= lik * r3[k];
          }
          wrow[j] = acc0;
          wrow[j + 1] = acc1;
          wrow[j + 2] = acc2;
          wrow[j + 3] = acc3;
        }
        for (; j < j1; ++j) {
          const double* rj = pl + j * n;
          double acc = wrow[j];
          for (std::size_t k = p0; k < p1; ++k) acc -= li[k] * rj[k];
          wrow[j] = acc;
        }
      }
    });
  }
  l_out = std::move(l);
  return true;
}

}  // namespace effitest::linalg::kernels
