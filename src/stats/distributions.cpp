#include "stats/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace effitest::stats {

double normal_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}

double normal_cdf(double z) {
  return 0.5 * std::erfc(-z / std::numbers::sqrt2);
}

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::domain_error("normal_quantile requires p in (0,1)");
  }
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x = 0.0;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step using the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * std::numbers::pi) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("mean of empty sample");
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("variance of empty sample");
  if (xs.size() == 1) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return sorted_quantile(xs, q);
}

double sorted_quantile(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile q outside [0,1]");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace effitest::stats
