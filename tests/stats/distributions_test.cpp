#include "stats/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace effitest::stats {
namespace {

TEST(NormalPdf, StandardValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-12);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 1e-15);
}

TEST(NormalCdf, StandardValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(normal_cdf(-1.0), 1.0 - normal_cdf(1.0), 1e-12);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-10);
}

TEST(NormalQuantile, InvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(NormalQuantile, KnownPoints) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-10);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-8);
  EXPECT_NEAR(normal_quantile(0.99), 2.3263478740408408, 1e-8);
}

TEST(NormalQuantile, DomainChecked) {
  EXPECT_THROW(static_cast<void>(normal_quantile(0.0)), std::domain_error);
  EXPECT_THROW(static_cast<void>(normal_quantile(1.0)), std::domain_error);
  EXPECT_THROW(static_cast<void>(normal_quantile(-0.5)), std::domain_error);
}

TEST(Descriptive, MeanVarianceStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, EmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(static_cast<void>(mean(empty)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(variance(empty)), std::invalid_argument);
}

TEST(Descriptive, SingleSampleVarianceZero) {
  const std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
}

TEST(Quantile, InterpolatesLinearly) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_NEAR(quantile(xs, 1.0 / 3.0), 2.0, 1e-12);
}

TEST(Quantile, UnsortedInputHandled) {
  std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Quantile, BadInputsThrow) {
  std::vector<double> xs{1.0};
  EXPECT_THROW(static_cast<void>(quantile(xs, 1.5)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(quantile(std::vector<double>{}, 0.5)), std::invalid_argument);
}

}  // namespace
}  // namespace effitest::stats
