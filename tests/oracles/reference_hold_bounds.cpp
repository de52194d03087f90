#include "reference_hold_bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace effitest::core {

namespace {

/// Max and runner-up margin over the kept samples of one pair.
struct TopTwo {
  double max = -std::numeric_limits<double>::infinity();
  double second = -std::numeric_limits<double>::infinity();
  void offer(double v) {
    if (v > max) {
      second = max;
      max = v;
    } else if (v > second) {
      second = v;
    }
  }
};

}  // namespace

std::vector<double> reference_greedy_discard_bounds(
    const std::vector<std::vector<double>>& delta, double yield) {
  const std::size_t m = delta.size();
  if (m == 0) return {};
  const std::size_t n_pairs = delta.front().size();
  for (const auto& row : delta) {
    if (row.size() != n_pairs) {
      throw std::invalid_argument("greedy_discard_bounds: ragged samples");
    }
  }
  const auto keep = static_cast<std::size_t>(
      std::ceil(yield * static_cast<double>(m)));
  std::size_t to_drop = m > keep ? m - keep : 0;

  std::vector<bool> dropped(m, false);
  while (to_drop > 0) {
    // Current top-two margins per pair over kept samples.
    std::vector<TopTwo> tops(n_pairs);
    for (std::size_t k = 0; k < m; ++k) {
      if (dropped[k]) continue;
      for (std::size_t p = 0; p < n_pairs; ++p) tops[p].offer(delta[k][p]);
    }
    // Benefit of dropping sample k: sum over pairs where k defines the max.
    double best_benefit = -1.0;
    std::size_t best_k = m;
    for (std::size_t k = 0; k < m; ++k) {
      if (dropped[k]) continue;
      double benefit = 0.0;
      for (std::size_t p = 0; p < n_pairs; ++p) {
        if (delta[k][p] >= tops[p].max - 1e-15) {
          benefit += tops[p].max - tops[p].second;
        }
      }
      if (benefit > best_benefit) {
        best_benefit = benefit;
        best_k = k;
      }
    }
    if (best_k == m) break;
    dropped[best_k] = true;
    --to_drop;
  }

  std::vector<double> lambda(n_pairs,
                             -std::numeric_limits<double>::infinity());
  for (std::size_t k = 0; k < m; ++k) {
    if (dropped[k]) continue;
    for (std::size_t p = 0; p < n_pairs; ++p) {
      lambda[p] = std::max(lambda[p], delta[k][p]);
    }
  }
  return lambda;
}

}  // namespace effitest::core
