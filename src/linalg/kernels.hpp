#pragma once
// Blocked dense kernels: the performance substrate under linalg and stats.
//
// The seed implementations of GEMM, Cholesky and triangular solves were
// straightforward triple loops. They are numerically fine but leave most of
// the machine idle: every per-element dot product is one serial
// floating-point dependency chain (one fused multiply-add per ~4 cycles),
// and the access patterns stream whole operands through cache once per
// output row/column. The kernels here fix both without changing a single
// result bit:
//
//  * Register blocking — each output element keeps its own accumulator and
//    neighbouring elements' chains interleave, so the FMA units pipeline
//    instead of stalling on one chain.
//  * Cache blocking — operands are walked in tiles sized for L1/L2 reuse.
//  * Deterministic parallelism — work fans out over *independent output
//    blocks* via parallel::deterministic_for; every element is produced
//    entirely inside one task with a fixed internal loop order, so results
//    are bit-identical for any thread count.
//
// Bit-compatibility contract: for every kernel, each output element is
// accumulated in exactly the per-element operation order of the seed naive
// code (k ascending into a single accumulator, division last). Blocking
// only reorders *between* elements, never within one, so the blocked
// kernels agree with the reference kernels bit-for-bit — pinned by
// tests/linalg/kernels_test.cpp. This is what lets Matrix::operator*,
// cholesky()/Cholesky::solve and the covariance assembly route through this
// layer without moving the golden-metrics pins.
//
// The reference_* functions preserve the seed implementations verbatim;
// they are the oracles for the bit-identity tests and the baseline side of
// bench_micro_solvers' blocked-vs-naive comparison.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "parallel/deterministic_for.hpp"

namespace effitest::linalg::kernels {

struct KernelOptions {
  /// Worker threads for the block fan-out: 0 = shared-pool width, 1 =
  /// serial. Results never depend on this value (the determinism contract
  /// of parallel::deterministic_for); small inputs stay serial regardless.
  std::size_t threads = 0;
};

/// Row tile (output rows per task; also the Cholesky panel width).
inline constexpr std::size_t kRowBlock = 64;
/// Column tile (GEMM j-tile / TRSM right-hand-side tile), sized so a
/// kRowBlock x kColBlock operand panel stays L2-resident.
inline constexpr std::size_t kColBlock = 256;
/// Flop threshold below which kernels skip the pool entirely.
inline constexpr std::size_t kSerialFlops = std::size_t{1} << 18;

/// C = A * B, blocked and parallel over row blocks. Bit-identical to
/// reference_matmul for finite inputs.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b,
                            const KernelOptions& opts = {});

/// C = A * A^T (symmetric), computed on the lower triangle in tiles and
/// mirrored. Bit-identical to reference_syrk.
[[nodiscard]] Matrix syrk(const Matrix& a, const KernelOptions& opts = {});

/// B := L^{-1} B for lower-triangular L (forward substitution over all
/// right-hand sides at once, vectorized across columns, parallel over
/// column blocks). Bit-identical to per-column forward_substitute.
void trsm_lower(const Matrix& l, Matrix& b, const KernelOptions& opts = {});

/// B := L^{-T} B (backward substitution over all right-hand sides).
/// Bit-identical to per-column backward_substitute.
void trsm_lower_transposed(const Matrix& l, Matrix& b,
                           const KernelOptions& opts = {});

/// Right-looking blocked Cholesky attempt: factor a + diag_add*I = L L^T.
/// Returns false on a non-positive (or non-finite) pivot, leaving l_out
/// untouched. Bit-identical to reference_cholesky: panel updates subtract
/// contributions in globally ascending k order per element.
[[nodiscard]] bool cholesky_blocked(const Matrix& a, double diag_add,
                                    Matrix& l_out,
                                    const KernelOptions& opts = {});

// -- Seed-era reference kernels (bit-compat oracles; do not "optimize") ----

[[nodiscard]] Matrix reference_matmul(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix reference_syrk(const Matrix& a);
[[nodiscard]] bool reference_cholesky(const Matrix& a, double diag_add,
                                      Matrix& l_out);
/// The seed Cholesky::solve(Matrix): per-column gather, forward+backward
/// substitution, scatter.
[[nodiscard]] Matrix reference_cholesky_solve(const Matrix& l,
                                              const Matrix& b);

// -- Blocked symmetric assembly ---------------------------------------------

/// Fill the symmetric matrix `out` from a pure per-cell function
/// `cell(i, j)` (called only for j >= i; both mirrored entries are
/// written). The upper triangle is tiled and tiles fan out over the pool;
/// since every cell is a pure function of (i, j), the result is
/// bit-identical for any worker count. Matrices smaller than
/// `serial_below` rows run inline on the caller.
template <typename CellFn>
void symmetric_fill(Matrix& out, const KernelOptions& opts,
                    std::size_t serial_below, CellFn&& cell) {
  if (!out.is_square()) {
    throw LinalgError("kernels::symmetric_fill requires square matrix");
  }
  const std::size_t n = out.rows();
  const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
  std::vector<std::pair<std::size_t, std::size_t>> tiles;
  tiles.reserve(blocks * (blocks + 1) / 2);
  for (std::size_t ib = 0; ib < blocks; ++ib) {
    for (std::size_t jb = ib; jb < blocks; ++jb) tiles.emplace_back(ib, jb);
  }
  parallel::ForOptions fopts;
  fopts.threads = n < serial_below ? 1 : opts.threads;
  parallel::deterministic_for(tiles.size(), fopts, [&](std::size_t t) {
    const auto [ib, jb] = tiles[t];
    const std::size_t i1 = std::min((ib + 1) * kRowBlock, n);
    const std::size_t j1 = std::min((jb + 1) * kRowBlock, n);
    for (std::size_t i = ib * kRowBlock; i < i1; ++i) {
      for (std::size_t j = std::max(i, jb * kRowBlock); j < j1; ++j) {
        const double v = cell(i, j);
        out(i, j) = v;
        out(j, i) = v;
      }
    }
  });
}

}  // namespace effitest::linalg::kernels
