#include "linalg/decomposition.hpp"

#include <gtest/gtest.h>

#include <random>

#include "linalg/matrix.hpp"

namespace effitest::linalg {
namespace {

Matrix random_spd(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = dist(rng);
  }
  // A A^T + n I is SPD.
  Matrix spd = a * a.transposed();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(Cholesky, FactorReconstructs2x2) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const Cholesky ch = cholesky(a);
  const Matrix recon = ch.l * ch.l.transposed();
  EXPECT_TRUE(recon.approx_equal(a, 1e-12));
}

TEST(Cholesky, LowerTriangular) {
  const Cholesky ch = cholesky(random_spd(5, 1));
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = r + 1; c < 5; ++c) {
      EXPECT_DOUBLE_EQ(ch.l(r, c), 0.0);
    }
  }
}

TEST(Cholesky, NonSpdThrows) {
  const Matrix not_spd{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(not_spd), LinalgError);
}

TEST(Cholesky, NonSquareThrows) {
  EXPECT_THROW(cholesky(Matrix(2, 3)), LinalgError);
}

TEST(Cholesky, JitterRescuesNearSingular) {
  // Rank-1 matrix: singular, but jitter regularization must succeed.
  Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_THROW(cholesky(a, 0.0), LinalgError);
  EXPECT_NO_THROW(cholesky(a, 1e-8));
}

TEST(Cholesky, SolveMatchesDirect) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const Matrix b{{10.0}, {8.0}};
  const Matrix x = cholesky(a).solve(b);
  EXPECT_TRUE((a * x).approx_equal(b, 1e-10));
}

TEST(Cholesky, SolveMatrixRhs) {
  const Matrix a = random_spd(4, 7);
  const Matrix b(4, 2, 1.0);
  const Matrix x = cholesky(a).solve(b);
  EXPECT_TRUE((a * x).approx_equal(b, 1e-9));
}

class CholeskyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CholeskyPropertyTest, RandomSpdRoundTrip) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 3 + seed % 8;
  const Matrix a = random_spd(n, seed);
  const Cholesky ch = cholesky(a);
  EXPECT_TRUE((ch.l * ch.l.transposed()).approx_equal(a, 1e-8));

  std::mt19937_64 rng(seed ^ 0xabcdef);
  std::normal_distribution<double> dist;
  Matrix b(n, 1);
  for (std::size_t i = 0; i < n; ++i) b(i, 0) = dist(rng);
  EXPECT_TRUE((a * ch.solve(b)).approx_equal(b, 1e-7));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CholeskyPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace effitest::linalg
