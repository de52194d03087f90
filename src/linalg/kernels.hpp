#pragma once
// Tiled symmetric assembly: the one dense kernel that earns its tiles. The
// prior covariance Sigma it fills has one row per monitored pair, up to
// 3,472 on the paper's circuits, and every cell is a sparse merge of two
// delay forms (timing::CircuitModel::max_covariance).
//
// The fill fans tile rows out over the shared pool via
// parallel::deterministic_for. Every cell is written by one task as a pure
// function of (i, j), so the matrix is bit-identical for any worker count.
// The Cholesky factor and solve (linalg/decomposition.hpp) only ever see
// Sigma_t over the tested paths, at most 64 x 64, and are plain loops.

#include <algorithm>
#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"
#include "parallel/deterministic_for.hpp"

namespace effitest::linalg::kernels {

/// Tile edge: the fill cuts the upper triangle into kRowBlock-square tiles.
inline constexpr std::size_t kRowBlock = 64;

/// Fill the symmetric matrix `out` from its upper triangle, one tile row at
/// a time. The triangle is cut into kRowBlock-square tiles and each block
/// row of tiles is one task on the pool. A task calls `make_row()` once and
/// then, tile by tile, `row(i, j0, dst)` for each of the tile's rows i:
/// `row` writes cells (i, j0) ... (i, j0 + dst.size() - 1) into `dst` (the
/// matrix row itself, j0 >= i) and may keep scratch across the calls of its
/// task; the kernel mirrors the cells. Since every cell must be a pure
/// function of (i, j), the result is bit-identical for any worker count.
/// `threads` workers share the tile rows (0 = shared-pool width, 1 =
/// serial); matrices smaller than `serial_below` rows run inline on the
/// caller.
template <typename MakeRow>
void symmetric_fill(Matrix& out, std::size_t threads,
                    std::size_t serial_below, MakeRow&& make_row) {
  if (!out.is_square()) {
    throw LinalgError("kernels::symmetric_fill requires square matrix");
  }
  const std::size_t n = out.rows();
  const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
  parallel::ForOptions fopts;
  fopts.threads = n < serial_below ? 1 : threads;
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
