#include "linalg/eigen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>

namespace effitest::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r; c < n; ++c) {
      a(r, c) = dist(rng);
      a(c, r) = a(r, c);
    }
  }
  return a;
}

TEST(EigenSymmetric, DiagonalMatrix) {
  const std::vector<double> d{3.0, 1.0, 2.0};
  const EigenDecomposition e = eigen_symmetric(Matrix::diagonal(d));
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 2.0, 1e-12);
  EXPECT_NEAR(e.values[2], 1.0, 1e-12);
}

TEST(EigenSymmetric, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  const EigenDecomposition e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 1.0, 1e-10);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-8);
}

TEST(EigenSymmetric, ValuesSortedDescending) {
  const EigenDecomposition e = eigen_symmetric(random_symmetric(8, 5));
  for (std::size_t i = 1; i < e.values.size(); ++i) {
    EXPECT_GE(e.values[i - 1], e.values[i]);
  }
}

TEST(EigenSymmetric, NonSquareThrows) {
  EXPECT_THROW(eigen_symmetric(Matrix(2, 3)), LinalgError);
}

TEST(EigenSymmetric, EmptyMatrix) {
  const EigenDecomposition e = eigen_symmetric(Matrix());
  EXPECT_TRUE(e.values.empty());
}

TEST(ComponentsForCoverage, PicksMinimalCount) {
  EigenDecomposition e;
  e.values = {8.0, 1.0, 1.0};  // total 10
  EXPECT_EQ(e.components_for_coverage(0.79), 1u);
  EXPECT_EQ(e.components_for_coverage(0.81), 2u);
  EXPECT_EQ(e.components_for_coverage(1.0), 3u);
}

TEST(ComponentsForCoverage, IgnoresNegativeEigenvalues) {
  EigenDecomposition e;
  e.values = {5.0, -2.0};
  EXPECT_EQ(e.components_for_coverage(0.99), 1u);
}

TEST(ComponentsForCoverage, AllZeroReturnsOne) {
  EigenDecomposition e;
  e.values = {0.0, 0.0};
  EXPECT_EQ(e.components_for_coverage(0.9), 1u);
}

/// Largest |entry| of m (the scale the tolerances below are relative to).
double max_abs(const Matrix& m) {
  double worst = 0.0;
  for (double x : m.data()) worst = std::max(worst, std::abs(x));
  return worst;
}

/// The three properties every decomposition must have: A == V diag(values)
/// V^T, V^T V == I, and values in descending order. Tolerances grow with n
/// (rounding accumulates over O(n) reflections and rotations per entry).
void expect_eigendecomposition(const Matrix& a, const EigenDecomposition& e) {
  const std::size_t n = a.rows();
  ASSERT_EQ(e.values.size(), n);
  ASSERT_EQ(e.vectors.rows(), n);
  ASSERT_EQ(e.vectors.cols(), n);
  const double tol = 1e-13 * static_cast<double>(n + 10);
  const Matrix recon =
      e.vectors * Matrix::diagonal(e.values) * e.vectors.transposed();
  EXPECT_TRUE(recon.approx_equal(a, tol * std::max(max_abs(a), 1.0)))
      << "reconstruction, n=" << n;
  EXPECT_TRUE((e.vectors.transposed() * e.vectors)
                  .approx_equal(Matrix::identity(n), tol))
      << "orthogonality, n=" << n;
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(e.values[i - 1], e.values[i]) << "order at " << i;
  }
}

/// B B^T / cols + diag_add * I for a random n x cols B: SPD when
/// diag_add > 0 or cols >= n, rank `cols` otherwise.
Matrix random_gram(std::size_t n, std::size_t cols, double diag_add,
                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  Matrix b(n, cols);
  for (double& x : b.data()) x = dist(rng);
  Matrix a = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = a(i, j) / static_cast<double>(cols) + (i == j ? diag_add : 0.0);
    }
  }
  a.symmetrize();
  return a;
}

class EigenPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EigenPropertyTest, ReconstructionAndOrthogonality) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 2 + seed % 10;
  const Matrix a = random_symmetric(n, seed);
  const EigenDecomposition e = eigen_symmetric(a);
  expect_eigendecomposition(a, e);

  // Trace preservation.
  double trace_a = 0.0;
  double sum_values = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace_a += a(i, i);
    sum_values += e.values[i];
  }
  EXPECT_NEAR(trace_a, sum_values, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EigenPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

class EigenSpdTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSpdTest, RandomSpdUpToThePcaBlockCap) {
  // Up to 320 = GroupingOptions::pca_max_block, the largest block
  // Procedure 1 ever decomposes.
  const std::size_t n = GetParam();
  const Matrix a = random_gram(n, n, 0.1, 1000 + n);
  const EigenDecomposition e = eigen_symmetric(a);
  expect_eigendecomposition(a, e);
  EXPECT_GT(e.values.back(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSpdTest,
                         ::testing::Values(1, 2, 3, 17, 64, 160, 320));

TEST(EigenSymmetric, EquicorrelatedBlockWithRepeatedEigenvalue) {
  // One eigenvalue 1 + (n-1) rho on the all-ones direction, then n-1
  // exactly repeated ones at 1 - rho: the shape of a Procedure-1 group.
  for (const std::size_t n : {std::size_t{5}, std::size_t{320}}) {
    const double rho = 0.9;
    Matrix a(n, n, rho);
    for (std::size_t i = 0; i < n; ++i) a(i, i) = 1.0;
    const EigenDecomposition e = eigen_symmetric(a);
    expect_eigendecomposition(a, e);
    const double tol = 1e-12 * static_cast<double>(n);
    EXPECT_NEAR(e.values[0], 1.0 + static_cast<double>(n - 1) * rho, tol);
    for (std::size_t i = 1; i < n; ++i) {
      EXPECT_NEAR(e.values[i], 1.0 - rho, tol) << "n=" << n << " i=" << i;
    }
    const double unit = 1.0 / std::sqrt(static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(e.vectors(i, 0)), unit, 1e-12);
    }
  }
}

TEST(EigenSymmetric, ClusteredEigenvalues) {
  // Q diag(lambda) Q^T with Q orthogonal and lambda in tight clusters.
  const std::vector<double> lambda{7.0,       7.0 + 1e-9, 7.0 - 1e-9, 3.0,
                                   3.0 + 1e-12, 1.0,      1.0,        1.0,
                                   0.5,       0.5 + 1e-7};
  const std::size_t n = lambda.size();
  const Matrix q = eigen_symmetric(random_symmetric(n, 42)).vectors;
  Matrix a = q * Matrix::diagonal(lambda) * q.transposed();
  a.symmetrize();
  const EigenDecomposition e = eigen_symmetric(a);
  expect_eigendecomposition(a, e);
  std::vector<double> expected = lambda;
  std::sort(expected.begin(), expected.end(), std::greater<>());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(e.values[i], expected[i], 1e-12) << i;
  }
}

TEST(EigenSymmetric, RankDeficient) {
  // Rank 4 in dimension 40: 36 eigenvalues at zero up to rounding.
  const Matrix a = random_gram(40, 4, 0.0, 9);
  const EigenDecomposition e = eigen_symmetric(a);
  expect_eigendecomposition(a, e);
  EXPECT_GT(e.values[3], 1e-3);
  for (std::size_t i = 4; i < 40; ++i) {
    EXPECT_NEAR(e.values[i], 0.0, 1e-12 * e.values[0]) << i;
  }
}

TEST(EigenSymmetric, AllZero) {
  const Matrix a(6, 6);
  const EigenDecomposition e = eigen_symmetric(a);
  expect_eigendecomposition(a, e);
  for (double v : e.values) EXPECT_EQ(v, 0.0);
}

TEST(EigenSymmetric, OneByOne) {
  const Matrix a{{-3.5}};
  const EigenDecomposition e = eigen_symmetric(a);
  expect_eigendecomposition(a, e);
  EXPECT_EQ(e.values[0], -3.5);
  EXPECT_EQ(std::abs(e.vectors(0, 0)), 1.0);
}

}  // namespace
}  // namespace effitest::linalg
