// Bit-compatibility and determinism pins for the blocked kernel layer.
//
// The contract (kernels.hpp): every blocked kernel accumulates each output
// element in exactly the per-element operation order of the seed naive
// code, so blocked and reference results (the seed Cholesky and solve in
// tests/oracles/reference_kernels.hpp) must agree BIT-FOR-BIT — no
// tolerances anywhere in this file — on any shape (ragged tile edges
// included) and for any worker count.

#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/decomposition.hpp"
#include "reference_kernels.hpp"
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

// Shapes straddling the tile sizes (kRowBlock = 64, kColBlock = 256),
// including ragged edges and degenerate extents.
const std::size_t kSizes[] = {1, 2, 3, 7, 16, 63, 64, 65, 130};

TEST(Kernels, CholeskyMatchesReferenceBitwise) {
  std::uint64_t seed = 200;
  for (std::size_t n : kSizes) {
    const Matrix spd = random_spd(n, seed++);
    Matrix l_blocked;
    Matrix l_ref;
    ASSERT_TRUE(kernels::cholesky_blocked(spd, 0.0, l_blocked));
    ASSERT_TRUE(kernels::reference_cholesky(spd, 0.0, l_ref));
    expect_bits_equal(l_blocked, l_ref, "cholesky");
  }
}

TEST(Kernels, CholeskyDiagAddMatchesReference) {
  const Matrix spd = random_spd(65, 7);
  Matrix l_blocked;
  Matrix l_ref;
  ASSERT_TRUE(kernels::cholesky_blocked(spd, 0.25, l_blocked));
  ASSERT_TRUE(kernels::reference_cholesky(spd, 0.25, l_ref));
  expect_bits_equal(l_blocked, l_ref, "cholesky diag_add");
}

TEST(Kernels, CholeskyRejectsIndefiniteLikeReference) {
  Matrix m = Matrix::identity(10);
  m(7, 7) = -1.0;
  Matrix l;
  EXPECT_FALSE(kernels::cholesky_blocked(m, 0.0, l));
  EXPECT_FALSE(kernels::reference_cholesky(m, 0.0, l));
}

TEST(Kernels, NonSquareInputsThrow) {
  Matrix l;
  EXPECT_THROW((void)kernels::cholesky_blocked(Matrix(3, 2), 0.0, l),
               LinalgError);
  Matrix rect(3, 2);
  EXPECT_THROW(kernels::symmetric_fill(
                   rect, {}, 0,
                   [] {
                     return [](std::size_t, std::size_t, std::span<double>) {};
                   }),
               LinalgError);
}

TEST(Kernels, TrsmMatchesPerColumnSubstitutionBitwise) {
  std::uint64_t seed = 300;
  for (std::size_t n : kSizes) {
    const Matrix spd = random_spd(n, seed++);
    Matrix l;
    ASSERT_TRUE(kernels::reference_cholesky(spd, 0.0, l));
    for (std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{257}}) {
      const Matrix b = random_matrix(n, m, seed++);
      // Reference: the seed per-column gather/substitute/scatter solve.
      const Matrix x_ref = kernels::reference_cholesky_solve(l, b);
      Matrix x = b;
      kernels::trsm_lower(l, x);
      kernels::trsm_lower_transposed(l, x);
      expect_bits_equal(x, x_ref, "trsm forward+backward");
    }
  }
}

TEST(Kernels, CholeskySolveEntryPointsRouteThroughKernels) {
  // The public cholesky()/Cholesky::solve must agree with the reference
  // path exactly (these are the calls the prediction gain goes through).
  const Matrix spd = random_spd(130, 17);
  const Cholesky chol = cholesky(spd);
  Matrix l_ref;
  ASSERT_TRUE(kernels::reference_cholesky(spd, 0.0, l_ref));
  expect_bits_equal(chol.l, l_ref, "cholesky()");
  const Matrix b = random_matrix(130, 40, 18);
  expect_bits_equal(chol.solve(b), kernels::reference_cholesky_solve(l_ref, b),
                    "Cholesky::solve");
}

TEST(Kernels, ThreadCountBitIdentity) {
  // Identical bits for any worker count, including the serial path. Sizes
  // above kSerialFlops so the fan-out actually engages.
  const Matrix spd = random_spd(260, 43);
  const Matrix rhs = random_matrix(260, 300, 44);

  Matrix l1;
  ASSERT_TRUE(kernels::cholesky_blocked(spd, 0.0, l1, {.threads = 1}));
  Matrix x1 = rhs;
  kernels::trsm_lower(l1, x1, {.threads = 1});
  kernels::trsm_lower_transposed(l1, x1, {.threads = 1});

  for (std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{7},
                              std::size_t{0}}) {
    const kernels::KernelOptions opts{threads};
    Matrix lt;
    ASSERT_TRUE(kernels::cholesky_blocked(spd, 0.0, lt, opts));
    expect_bits_equal(lt, l1, "cholesky threads");
    Matrix xt = rhs;
    kernels::trsm_lower(lt, xt, opts);
    kernels::trsm_lower_transposed(lt, xt, opts);
    expect_bits_equal(xt, x1, "trsm threads");
  }
}

TEST(Kernels, SymmetricFillMatchesCellFunction) {
  for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{65},
                        std::size_t{300}}) {
    Matrix out(n, n);
    const auto cell = [](std::size_t i, std::size_t j) {
      return static_cast<double>(i * 1000 + j) + 0.5;
    };
    kernels::symmetric_fill(out, {.threads = 0}, /*serial_below=*/0, [&] {
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
