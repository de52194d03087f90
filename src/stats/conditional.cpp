#include "stats/conditional.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/decomposition.hpp"

namespace effitest::stats {

std::shared_ptr<const PredictionGain> PredictionGain::compute(
    const linalg::Matrix& cov, std::vector<std::size_t> measured,
    double jitter) {
  const std::size_t n = cov.rows();
  if (!cov.is_square()) {
    throw std::invalid_argument("PredictionGain: covariance not square");
  }
  auto out = std::make_shared<PredictionGain>();
  out->measured = std::move(measured);

  std::vector<bool> is_measured(n, false);
  for (std::size_t idx : out->measured) {
    if (idx >= n) {
      throw std::invalid_argument("PredictionGain: index out of range");
    }
    if (is_measured[idx]) {
      throw std::invalid_argument("PredictionGain: duplicate index");
    }
    is_measured[idx] = true;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_measured[i]) out->predicted.push_back(i);
  }

  const std::size_t nt = out->measured.size();
  const std::size_t nk = out->predicted.size();

  if (nt == 0) {
    // Degenerate: nothing measured; posterior equals prior.
    out->gain = linalg::Matrix(nk, 0);
    out->posterior_sigma.resize(nk);
    for (std::size_t k = 0; k < nk; ++k) {
      out->posterior_sigma[k] =
          std::sqrt(std::max(cov(out->predicted[k], out->predicted[k]), 0.0));
    }
    return out;
  }

  // Sigma_t (measured block) and Sigma_{k,t} (cross block).
  const linalg::Matrix sigma_t = cov.select(out->measured, out->measured);
  const linalg::Matrix sigma_kt = cov.select(out->predicted, out->measured);

  // W = Sigma_{k,t} Sigma_t^{-1}  computed as solving Sigma_t W^T = Sigma_{t,k}.
  const linalg::Matrix wt =  // nt x nk
      linalg::cholesky(sigma_t, jitter).solve(sigma_kt.transposed());
  out->gain = wt.transposed();  // nk x nt

  out->posterior_sigma.resize(nk);
  for (std::size_t k = 0; k < nk; ++k) {
    double reduction = 0.0;
    for (std::size_t t = 0; t < nt; ++t) {
      reduction += out->gain(k, t) * sigma_kt(k, t);
    }
    const double var = cov(out->predicted[k], out->predicted[k]) - reduction;
    // Numerical floor: eq. (5) guarantees var >= 0 mathematically.
    out->posterior_sigma[k] = std::sqrt(std::max(var, 0.0));
  }
  return out;
}

std::vector<double> PredictionGain::posterior_mean(
    std::span<const double> mean, std::span<const double> observed) const {
  if (observed.size() != measured.size()) {
    throw std::invalid_argument("posterior_mean: observation size mismatch");
  }
  std::vector<double> innovation(measured.size());
  for (std::size_t t = 0; t < measured.size(); ++t) {
    innovation[t] = observed[t] - mean[measured[t]];
  }
  std::vector<double> out(predicted.size());
  for (std::size_t k = 0; k < predicted.size(); ++k) {
    double acc = mean[predicted[k]];
    for (std::size_t t = 0; t < measured.size(); ++t) {
      acc += gain(k, t) * innovation[t];
    }
    out[k] = acc;
  }
  return out;
}

}  // namespace effitest::stats
