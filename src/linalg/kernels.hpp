#pragma once
// Blocked dense kernels: the performance substrate under linalg and stats.
//
// The seed Cholesky and triangular solves were straightforward triple
// loops. They are numerically fine but leave most of the machine idle:
// every per-element dot product is one serial floating-point dependency
// chain (one fused multiply-add per ~4 cycles), and the access patterns
// stream whole operands through cache once per output row/column. The
// kernels here fix both without changing a single result bit:
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
// only reorders *between* elements, never within one, so the kernels agree
// bit-for-bit with the seed Cholesky and per-column solve. Those seed
// implementations are kept verbatim as test-only oracles
// (tests/oracles/reference_kernels.hpp, outside this library) and pinned
// against the kernels by tests/linalg/kernels_test.cpp. This is what lets
// cholesky()/Cholesky::solve and the covariance assembly route through
// this layer without moving the golden-metrics pins. Matrix::operator* is
// the seed i-k-j loop itself; nothing on a shipped path multiplies large
// matrices.

#include <algorithm>
#include <cstddef>
#include <span>

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
/// Column tile (TRSM right-hand-side tile), sized so a kRowBlock x
/// kColBlock operand panel stays L2-resident.
inline constexpr std::size_t kColBlock = 256;
/// Flop threshold below which kernels skip the pool entirely.
inline constexpr std::size_t kSerialFlops = std::size_t{1} << 18;

/// B := L^{-1} B for lower-triangular L (forward substitution over all
/// right-hand sides at once, vectorized across columns, parallel over
/// column blocks). Bit-identical to the per-column
/// reference_forward_substitute oracle.
void trsm_lower(const Matrix& l, Matrix& b, const KernelOptions& opts = {});

/// B := L^{-T} B (backward substitution over all right-hand sides).
/// Bit-identical to the per-column reference_backward_substitute oracle.
void trsm_lower_transposed(const Matrix& l, Matrix& b,
                           const KernelOptions& opts = {});

/// Right-looking blocked Cholesky attempt: factor a + diag_add*I = L L^T.
/// Returns false on a non-positive (or non-finite) pivot, leaving l_out
/// untouched. Bit-identical to the seed left-looking Cholesky (the
/// reference_cholesky oracle): panel updates subtract contributions in
/// globally ascending k order per element.
[[nodiscard]] bool cholesky_blocked(const Matrix& a, double diag_add,
                                    Matrix& l_out,
                                    const KernelOptions& opts = {});

// -- Blocked symmetric assembly ---------------------------------------------

/// Fill the symmetric matrix `out` from its upper triangle, one tile row at
/// a time. The triangle is cut into kRowBlock-square tiles and each block
/// row of tiles is one task on the pool. A task calls `make_row()` once and
/// then, tile by tile, `row(i, j0, dst)` for each of the tile's rows i:
/// `row` writes cells (i, j0) ... (i, j0 + dst.size() - 1) into `dst` (the
/// matrix row itself, j0 >= i) and may keep scratch across the calls of its
/// task; the kernel mirrors the cells. Since every cell must be a pure
/// function of (i, j), the result is bit-identical for any worker count.
/// Matrices smaller than `serial_below` rows run inline on the caller.
template <typename MakeRow>
void symmetric_fill(Matrix& out, const KernelOptions& opts,
                    std::size_t serial_below, MakeRow&& make_row) {
  if (!out.is_square()) {
    throw LinalgError("kernels::symmetric_fill requires square matrix");
  }
  const std::size_t n = out.rows();
  const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
  parallel::ForOptions fopts;
  fopts.threads = n < serial_below ? 1 : opts.threads;
  // Block rows shrink along the triangle; claiming them in index order
  // hands out the largest first, which keeps the workers balanced.
  parallel::deterministic_for(blocks, fopts, [&](std::size_t ib) {
    auto row = make_row();
    const std::size_t i1 = std::min((ib + 1) * kRowBlock, n);
    for (std::size_t jb = ib; jb < blocks; ++jb) {
      const std::size_t j1 = std::min((jb + 1) * kRowBlock, n);
      for (std::size_t i = ib * kRowBlock; i < i1; ++i) {
        const std::size_t j0 = std::max(i, jb * kRowBlock);
        const std::span<double> dst = out.row(i).subspan(j0, j1 - j0);
        row(i, j0, dst);
        for (std::size_t j = j0; j < j1; ++j) out(j, i) = dst[j - j0];
      }
    }
  });
}

}  // namespace effitest::linalg::kernels
