#pragma once
// Scalar Gaussian utilities and descriptive statistics.

#include <span>
#include <vector>

namespace effitest::stats {

/// Standard normal probability density.
[[nodiscard]] double normal_pdf(double z);

/// Standard normal CDF Phi(z).
[[nodiscard]] double normal_cdf(double z);

/// Inverse standard normal CDF (Acklam's rational approximation refined by
/// one Halley step; |error| < 1e-12 over (0,1)). Throws std::domain_error
/// outside (0,1).
[[nodiscard]] double normal_quantile(double p);

/// Arithmetic mean; throws std::invalid_argument on empty input.
[[nodiscard]] double mean(std::span<const double> xs);

/// Sample variance (divides by n-1; by n when n == 1 returns 0).
[[nodiscard]] double variance(std::span<const double> xs);

/// Sample standard deviation.
[[nodiscard]] double stddev(std::span<const double> xs);

/// Empirical quantile with linear interpolation, q in [0,1].
[[nodiscard]] double quantile(std::vector<double> xs, double q);

/// quantile() of an already ascending-sorted sample (no copy, no sort).
[[nodiscard]] double sorted_quantile(std::span<const double> sorted, double q);

}  // namespace effitest::stats
