#include "stats/conditional.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/decomposition.hpp"
#include "stats/rng.hpp"

namespace effitest::stats {
namespace {

TEST(PredictionGain, BivariateTextbookCase) {
  // X1, X2 with var 1, correlation rho: X1 | X2 = x has mean rho*x and
  // variance 1 - rho^2 (paper eqs. 4-5 specialized).
  const double rho = 0.8;
  const linalg::Matrix cov{{1.0, rho}, {rho, 1.0}};
  const auto g = PredictionGain::compute(cov, {1});
  ASSERT_EQ(g->predicted.size(), 1u);
  EXPECT_EQ(g->predicted[0], 0u);
  EXPECT_NEAR(g->posterior_sigma[0], std::sqrt(1.0 - rho * rho), 1e-10);

  const std::vector<double> mu{0.0, 0.0};
  const std::vector<double> obs{2.0};
  const std::vector<double> post = g->posterior_mean(mu, obs);
  EXPECT_NEAR(post[0], rho * 2.0, 1e-10);
}

TEST(PredictionGain, NonZeroMeans) {
  const linalg::Matrix cov{{2.0, 1.0}, {1.0, 4.0}};
  const auto g = PredictionGain::compute(cov, {1});
  const std::vector<double> mu{10.0, 20.0};
  const std::vector<double> obs{24.0};  // 1 sigma above... innovation 4
  const std::vector<double> post = g->posterior_mean(mu, obs);
  EXPECT_NEAR(post[0], 10.0 + (1.0 / 4.0) * 4.0, 1e-10);
}

TEST(PredictionGain, VarianceNeverIncreases) {
  // Eq. 5: posterior variance <= prior variance, always.
  const linalg::Matrix cov{
      {2.0, 0.5, 0.3}, {0.5, 1.5, 0.2}, {0.3, 0.2, 1.0}};
  const auto g = PredictionGain::compute(cov, {2});
  const auto& pred = g->predicted;
  for (std::size_t k = 0; k < pred.size(); ++k) {
    EXPECT_LE(g->posterior_sigma[k] * g->posterior_sigma[k],
              cov(pred[k], pred[k]) + 1e-12);
  }
}

TEST(PredictionGain, IndependentVariablesUnchanged) {
  const linalg::Matrix cov = linalg::Matrix::identity(3);
  const auto g = PredictionGain::compute(cov, {0});
  EXPECT_NEAR(g->posterior_sigma[0], 1.0, 1e-10);
  EXPECT_NEAR(g->posterior_sigma[1], 1.0, 1e-10);
  const std::vector<double> mu{0.0, 5.0, 7.0};
  const std::vector<double> post =
      g->posterior_mean(mu, std::vector<double>{3.0});
  EXPECT_NEAR(post[0], 5.0, 1e-10);
  EXPECT_NEAR(post[1], 7.0, 1e-10);
}

TEST(PredictionGain, PerfectCorrelationPinsValue) {
  linalg::Matrix cov{{1.0, 0.999999}, {0.999999, 1.0}};
  const auto g = PredictionGain::compute(cov, {1});
  EXPECT_NEAR(g->posterior_sigma[0], 0.0, 1e-2);
  const std::vector<double> post = g->posterior_mean(
      std::vector<double>{0.0, 0.0}, std::vector<double>{1.7});
  EXPECT_NEAR(post[0], 1.7, 1e-3);
}

TEST(PredictionGain, NothingMeasured) {
  const linalg::Matrix cov{{4.0, 0.0}, {0.0, 9.0}};
  const auto g = PredictionGain::compute(cov, {});
  EXPECT_EQ(g->predicted.size(), 2u);
  EXPECT_NEAR(g->posterior_sigma[0], 2.0, 1e-12);
  EXPECT_NEAR(g->posterior_sigma[1], 3.0, 1e-12);
}

TEST(PredictionGain, InputValidation) {
  const linalg::Matrix cov = linalg::Matrix::identity(3);
  EXPECT_THROW((void)PredictionGain::compute(cov, {5}), std::invalid_argument);
  EXPECT_THROW((void)PredictionGain::compute(cov, {1, 1}),
               std::invalid_argument);
  const auto g = PredictionGain::compute(cov, {0, 1});
  EXPECT_THROW((void)g->posterior_mean(std::vector<double>{0.0, 0.0, 0.0},
                                       std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(PredictionGain, GainMatrixShape) {
  const linalg::Matrix cov = linalg::Matrix::identity(5);
  const auto g = PredictionGain::compute(cov, {1, 3});
  EXPECT_EQ(g->gain.rows(), 3u);  // predicted: 0, 2, 4
  EXPECT_EQ(g->gain.cols(), 2u);
}

TEST(PredictionGain, SolvesAgainstTheMeasuredBlock) {
  const linalg::Matrix cov{{4.0, 1.0}, {1.0, 9.0}};
  const auto gain = PredictionGain::compute(cov, {1});
  // Sigma_t = [9]: W = 1/9, sigma'^2 = 4 - 1 * 1/9 (eq. 5).
  EXPECT_DOUBLE_EQ(gain->gain(0, 0), 1.0 / 9.0);
  ASSERT_EQ(gain->posterior_sigma.size(), 1u);
  EXPECT_DOUBLE_EQ(gain->posterior_sigma[0], std::sqrt(35.0) / 3.0);
}

// Property: the conditional-mean estimator is unbiased and its residual
// std matches the posterior sigma (empirically via joint sampling).
class ConditionalPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConditionalPropertyTest, EmpiricalResidualsMatchEq5) {
  Rng rng(GetParam());
  // Random 4x4 covariance: A A^T + 0.5 I.
  linalg::Matrix a(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.normal();
  }
  linalg::Matrix cov = a * a.transposed();
  for (std::size_t i = 0; i < 4; ++i) cov(i, i) += 0.5;

  const std::vector<double> mu{1.0, 2.0, 3.0, 4.0};
  // Joint draws s = mu + L z with Sigma = L L^T.
  const linalg::Matrix l = linalg::cholesky(cov).l;
  const auto g = PredictionGain::compute(cov, {1, 2});

  const std::size_t trials = 6000;
  double sum_err0 = 0.0;
  double sum_sq_err0 = 0.0;
  std::vector<double> z(4);
  std::vector<double> s(4);
  for (std::size_t t = 0; t < trials; ++t) {
    for (double& v : z) v = rng.normal();
    for (std::size_t i = 0; i < 4; ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= i; ++k) acc += l(i, k) * z[k];
      s[i] = mu[i] + acc;
    }
    const std::vector<double> post =
        g->posterior_mean(mu, std::vector<double>{s[1], s[2]});
    const double err = s[0] - post[0];  // predicted index 0
    sum_err0 += err;
    sum_sq_err0 += err * err;
  }
  const double mean_err = sum_err0 / static_cast<double>(trials);
  const double std_err = std::sqrt(sum_sq_err0 / static_cast<double>(trials) -
                                   mean_err * mean_err);
  EXPECT_NEAR(mean_err, 0.0, 0.1 * g->posterior_sigma[0] + 0.05);
  EXPECT_NEAR(std_err, g->posterior_sigma[0],
              0.06 * g->posterior_sigma[0] + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConditionalPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace effitest::stats
