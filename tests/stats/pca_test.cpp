#include "stats/pca.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace effitest::stats {
namespace {

TEST(Pca, DiagonalCovariance) {
  const std::vector<double> d{9.0, 4.0, 1.0};
  const Pca pca = pca_from_covariance(linalg::Matrix::diagonal(d));
  ASSERT_EQ(pca.component_variance.size(), 3u);
  EXPECT_NEAR(pca.component_variance[0], 9.0, 1e-10);
  EXPECT_NEAR(pca.component_variance[2], 1.0, 1e-10);
  // Leading component loads on variable 0.
  EXPECT_NEAR(std::abs(pca.loading(0, 0)), 1.0, 1e-8);
}

TEST(Pca, EquicorrelatedBlockHasOneDominantComponent) {
  const double rho = 0.95;
  const std::size_t n = 6;
  linalg::Matrix cov(n, n, rho);
  for (std::size_t i = 0; i < n; ++i) cov(i, i) = 1.0;
  const Pca pca = pca_from_covariance(cov);
  // lambda1 = 1 + (n-1) rho, rest = 1 - rho.
  EXPECT_NEAR(pca.component_variance[0], 1.0 + 5.0 * rho, 1e-8);
  EXPECT_NEAR(pca.component_variance[1], 1.0 - rho, 1e-8);
  EXPECT_EQ(pca.significant_components(0.9), 1u);
  EXPECT_EQ(pca.significant_components(0.999), n - 0u);
}

TEST(Pca, SignificantComponentsMonotoneInCoverage) {
  linalg::Matrix cov{{4.0, 1.0, 0.0}, {1.0, 3.0, 0.5}, {0.0, 0.5, 2.0}};
  const Pca pca = pca_from_covariance(cov);
  std::size_t prev = 0;
  for (double cov_frac : {0.3, 0.6, 0.9, 0.99, 1.0}) {
    const std::size_t k = pca.significant_components(cov_frac);
    EXPECT_GE(k, prev);
    prev = k;
  }
}

TEST(Pca, AsymmetryIsAveragedAway) {
  linalg::Matrix cov{{2.0, 0.5001}, {0.4999, 1.0}};
  EXPECT_NO_THROW(pca_from_covariance(cov));
}

TEST(SelectRepresentatives, PicksLargestLoadingPerComponent) {
  // Two independent blocks: {0,1} strongly coupled, {2} independent.
  linalg::Matrix cov{{1.0, 0.99, 0.0}, {0.99, 1.0, 0.0}, {0.0, 0.0, 2.0}};
  const Pca pca = pca_from_covariance(cov);
  const std::vector<std::size_t> reps = select_representatives(pca, 2);
  ASSERT_EQ(reps.size(), 2u);
  // Components: variance-2 variable (index 2) and the coupled pair; one rep
  // from each, never both members of the coupled pair.
  EXPECT_NE(reps[0], reps[1]);
  const bool has_block = reps[0] == 2 || reps[1] == 2;
  EXPECT_TRUE(has_block);
}

TEST(SelectRepresentatives, NoDuplicates) {
  linalg::Matrix cov(4, 4, 0.9);
  for (std::size_t i = 0; i < 4; ++i) cov(i, i) = 1.0;
  const Pca pca = pca_from_covariance(cov);
  const std::vector<std::size_t> reps = select_representatives(pca, 4);
  ASSERT_EQ(reps.size(), 4u);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (std::size_t j = i + 1; j < reps.size(); ++j) {
      EXPECT_NE(reps[i], reps[j]);
    }
  }
}

TEST(SelectRepresentatives, ExchangeablePairPicksLowestIndex) {
  // [[a,b],[b,a]]: both eigenvectors load equally on the two paths, so
  // each component's pick is a tie and the lowest untaken index wins.
  const linalg::Matrix cov{{2.0, 1.5}, {1.5, 2.0}};
  const Pca pca = pca_from_covariance(cov);
  EXPECT_EQ(select_representatives(pca, 1), (std::vector<std::size_t>{0}));
  EXPECT_EQ(select_representatives(pca, 2), (std::vector<std::size_t>{0, 1}));
}

TEST(SelectRepresentatives, SwappablePathsInLargerBlockPickLowestIndex) {
  // Paths 1 and 3 are exchangeable (swapping them leaves cov unchanged)
  // and dominate the leading component.
  const linalg::Matrix cov{{1.0, 0.2, 0.1, 0.2},
                           {0.2, 4.0, 0.3, 3.5},
                           {0.1, 0.3, 1.0, 0.3},
                           {0.2, 3.5, 0.3, 4.0}};
  const Pca pca = pca_from_covariance(cov);
  EXPECT_EQ(select_representatives(pca, 1), (std::vector<std::size_t>{1}));
}

TEST(SelectRepresentatives, LoadingsWithinToleranceCountAsTied) {
  // Path 2 out-loads path 0 by a relative 1e-12 (solver rounding), path 1
  // trails by 1e-6 (a real difference): 0 wins the tie; once it is taken,
  // 2 beats 1 outright.
  Pca pca;
  pca.component_variance = {2.0, 1.0};
  pca.components = linalg::Matrix{
      {0.5, 0.5}, {0.5 * (1.0 - 1e-6), 0.0}, {-0.5 * (1.0 + 1e-12), 0.5}};
  EXPECT_EQ(select_representatives(pca, 1), (std::vector<std::size_t>{0}));
  pca.components = linalg::Matrix{
      {0.5, 0.0}, {0.4, 0.5 * (1.0 - 1e-6)}, {0.3, -0.5}};
  EXPECT_EQ(select_representatives(pca, 2), (std::vector<std::size_t>{0, 2}));
}

TEST(SelectRepresentatives, RequestMoreThanVariables) {
  const Pca pca = pca_from_covariance(linalg::Matrix::identity(2));
  EXPECT_EQ(select_representatives(pca, 5).size(), 2u);
}

TEST(SelectRepresentatives, ZeroComponents) {
  const Pca pca = pca_from_covariance(linalg::Matrix::identity(2));
  EXPECT_TRUE(select_representatives(pca, 0).empty());
}

}  // namespace
}  // namespace effitest::stats
