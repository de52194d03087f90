#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace effitest::core {
namespace {

TEST(DelayPredictor, TestedPathsKeepMeasuredBounds) {
  const linalg::Matrix cov{{1.0, 0.8}, {0.8, 1.0}};
  const DelayPredictor pred(
      stats::PredictionGain::compute(cov, {0}), {100.0, 100.0});
  const std::vector<double> ml{98.0};
  const std::vector<double> mu{99.0};
  const DelayBounds b = pred.predict(ml, mu);
  EXPECT_DOUBLE_EQ(b.lower[0], 98.0);
  EXPECT_DOUBLE_EQ(b.upper[0], 99.0);
}

TEST(DelayPredictor, PredictedBoundsAreMuPm3Sigma) {
  const double rho = 0.8;
  const linalg::Matrix cov{{1.0, rho}, {rho, 1.0}};
  const DelayPredictor pred(
      stats::PredictionGain::compute(cov, {1}), {100.0, 100.0});
  // Measured upper bound 102 -> innovation +2 -> mu' = 100 + rho*2.
  const std::vector<double> ml{101.0};
  const std::vector<double> mu{102.0};
  const DelayBounds b = pred.predict(ml, mu);
  const double mu_post = 100.0 + rho * 2.0;
  const double sigma_post = std::sqrt(1.0 - rho * rho);
  EXPECT_NEAR(b.lower[0], mu_post - 3.0 * sigma_post, 1e-10);
  EXPECT_NEAR(b.upper[0], mu_post + 3.0 * sigma_post, 1e-10);
}

TEST(DelayPredictor, ConservativeUsesUpperBoundsOnly) {
  // Different lower bounds must not change the prediction (§3.4: the upper
  // bounds feed eq. 4).
  const linalg::Matrix cov{{1.0, 0.5}, {0.5, 1.0}};
  const DelayPredictor pred(
      stats::PredictionGain::compute(cov, {1}), {10.0, 10.0});
  const DelayBounds a =
      pred.predict(std::vector<double>{9.0}, std::vector<double>{11.0});
  const DelayBounds b =
      pred.predict(std::vector<double>{5.0}, std::vector<double>{11.0});
  EXPECT_DOUBLE_EQ(a.lower[0], b.lower[0]);
  EXPECT_DOUBLE_EQ(a.upper[0], b.upper[0]);
}

TEST(DelayPredictor, HighCorrelationShrinksPredictedRange) {
  const linalg::Matrix loose{{1.0, 0.3}, {0.3, 1.0}};
  const linalg::Matrix tight{{1.0, 0.99}, {0.99, 1.0}};
  const DelayPredictor p_loose(
      stats::PredictionGain::compute(loose, {1}), {0.0, 0.0});
  const DelayPredictor p_tight(
      stats::PredictionGain::compute(tight, {1}), {0.0, 0.0});
  const std::vector<double> m{0.0};
  const double w_loose = p_loose.predict(m, m).upper[0] -
                         p_loose.predict(m, m).lower[0];
  const double w_tight = p_tight.predict(m, m).upper[0] -
                         p_tight.predict(m, m).lower[0];
  EXPECT_LT(w_tight, w_loose);
}

TEST(DelayPredictor, PosteriorSigmaOrderMatchesPredictedIndices) {
  const linalg::Matrix cov{
      {1.0, 0.9, 0.1}, {0.9, 1.0, 0.1}, {0.1, 0.1, 1.0}};
  const DelayPredictor pred(
      stats::PredictionGain::compute(cov, {1}), {5.0, 5.0, 5.0});
  ASSERT_EQ(pred.predicted_indices().size(), 2u);
  EXPECT_EQ(pred.predicted_indices()[0], 0u);  // correlated with tested
  EXPECT_EQ(pred.predicted_indices()[1], 2u);  // nearly independent
  EXPECT_LT(pred.posterior_sigma()[0], pred.posterior_sigma()[1]);
}

TEST(DelayPredictor, SizeValidation) {
  const linalg::Matrix cov = linalg::Matrix::identity(3);
  EXPECT_THROW(
      DelayPredictor(stats::PredictionGain::compute(cov, {0}), {1.0, 2.0}),
      std::invalid_argument);
  const DelayPredictor pred(
      stats::PredictionGain::compute(cov, {0, 2}), {1.0, 2.0, 3.0});
  EXPECT_THROW(pred.predict(std::vector<double>{1.0},
                            std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(DelayPredictor, AllTestedNoPrediction) {
  const linalg::Matrix cov = linalg::Matrix::identity(2);
  const DelayPredictor pred(
      stats::PredictionGain::compute(cov, {0, 1}), {1.0, 2.0});
  EXPECT_TRUE(pred.predicted_indices().empty());
  const std::vector<double> ml{0.5, 1.5};
  const std::vector<double> mu{1.5, 2.5};
  const DelayBounds b = pred.predict(ml, mu);
  EXPECT_DOUBLE_EQ(b.lower[1], 1.5);
  EXPECT_DOUBLE_EQ(b.upper[1], 2.5);
}

TEST(DelayPredictor, AdoptingASharedGainSkipsRefactorization) {
  const linalg::Matrix cov{
      {2.0, 0.5, 0.3}, {0.5, 1.5, 0.2}, {0.3, 0.2, 1.0}};
  const std::vector<double> mu{1.0, 2.0, 3.0};
  const auto gain = stats::PredictionGain::compute(cov, {2});
  const DelayPredictor fresh(stats::PredictionGain::compute(cov, {2}), mu);
  const DelayPredictor adopted(gain, mu);

  // Same split, same numbers — and the adopting instance aliases the very
  // object it was handed instead of copying or recomputing it.
  EXPECT_EQ(adopted.shared_gain().get(), gain.get());
  ASSERT_EQ(adopted.predicted_indices(), fresh.predicted_indices());
  for (std::size_t k = 0; k < fresh.posterior_sigma().size(); ++k) {
    EXPECT_EQ(adopted.posterior_sigma()[k], fresh.posterior_sigma()[k]);
  }
  const std::vector<double> obs{3.5};
  const DelayBounds pa = adopted.predict(obs, obs);
  const DelayBounds pf = fresh.predict(obs, obs);
  EXPECT_EQ(pa.lower, pf.lower);
  EXPECT_EQ(pa.upper, pf.upper);
  const std::vector<double> ma = gain->posterior_mean(mu, obs);
  const std::vector<double> mf = fresh.shared_gain()->posterior_mean(mu, obs);
  EXPECT_EQ(ma, mf);

  // Copying a DelayPredictor shares the gain too.
  const DelayPredictor copy = fresh;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.shared_gain().get(), fresh.shared_gain().get());
  EXPECT_THROW(DelayPredictor(nullptr, mu), std::invalid_argument);
}

}  // namespace
}  // namespace effitest::core
