// Bit-identity pins for the row-sweep Cholesky solve and the tiled
// symmetric fill.
//
// Cholesky::solve advances every right-hand side together, row by row, but
// each element keeps the per-column operation order of the seed solve (k
// ascending into one accumulator, division last). So it must agree
// BIT-FOR-BIT with the seed per-column solve kept in
// tests/oracles/reference_solve.hpp -- no tolerances anywhere in this file.

#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>

#include "linalg/decomposition.hpp"
#include "reference_solve.hpp"
#include "stats/rng.hpp"

namespace effitest::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  }
  return m;
}

Matrix random_spd(std::size_t n, std::uint64_t seed) {
  const Matrix a = random_matrix(n, n, seed);
  Matrix spd = a * a.transposed();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

void expect_bits_equal(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a(r, c), b(r, c)) << what << " differs at " << r << "," << c;
    }
  }
}

// Ragged and degenerate extents around the 64-row tile of the fill.
const std::size_t kSizes[] = {1, 2, 3, 7, 16, 63, 64, 65, 130};

TEST(Kernels, SolveMatchesPerColumnSolveBitwise) {
  std::uint64_t seed = 300;
  for (std::size_t n : kSizes) {
    const Cholesky chol = cholesky(random_spd(n, seed++));
    for (std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{257}}) {
      const Matrix b = random_matrix(n, m, seed++);
      expect_bits_equal(chol.solve(b), reference_cholesky_solve(chol.l, b),
                        "Cholesky::solve");
    }
  }
}

TEST(Kernels, SolveMatchesPerColumnSolveAtPredictionShape) {
  // pci_bridge32's gain: Sigma_t over its 64 tested paths against the
  // 3,408 untested ones, as stats::PredictionGain::compute solves it.
  const Cholesky chol = cholesky(random_spd(64, 17), 1e-9);
  const Matrix b = random_matrix(64, 3408, 18);
  expect_bits_equal(chol.solve(b), reference_cholesky_solve(chol.l, b),
                    "Cholesky::solve at n = 64, m = 3408");
}

TEST(Kernels, NonSquareInputsThrow) {
  Matrix rect(3, 2);
  EXPECT_THROW(kernels::symmetric_fill(
                   rect, 0, 0,
                   [] {
                     return [](std::size_t, std::size_t, std::span<double>) {};
                   }),
               LinalgError);
}

TEST(Kernels, SymmetricFillMatchesCellFunction) {
  for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{65},
                        std::size_t{300}}) {
    Matrix out(n, n);
    const auto cell = [](std::size_t i, std::size_t j) {
      return static_cast<double>(i * 1000 + j) + 0.5;
    };
    kernels::symmetric_fill(out, /*threads=*/0, /*serial_below=*/0, [&] {
      return [&cell](std::size_t i, std::size_t j0, std::span<double> dst) {
        ASSERT_GE(j0, i);
        for (std::size_t c = 0; c < dst.size(); ++c) dst[c] = cell(i, j0 + c);
      };
    });
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        ASSERT_EQ(out(i, j), cell(i, j));
        ASSERT_EQ(out(j, i), cell(i, j));
      }
    }
  }
}

}  // namespace
}  // namespace effitest::linalg
