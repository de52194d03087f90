#include "stats/pca.hpp"

#include <algorithm>
#include <cmath>

namespace effitest::stats {

std::size_t Pca::significant_components(double coverage) const {
  linalg::EigenDecomposition tmp;
  tmp.values = component_variance;
  return tmp.components_for_coverage(coverage);
}

std::size_t Pca::significant_by_kaiser() const {
  if (component_variance.empty()) return 0;
  double total = 0.0;
  for (double v : component_variance) total += std::max(v, 0.0);
  const double floor = total / static_cast<double>(component_variance.size());
  std::size_t count = 0;
  for (double v : component_variance) {
    if (v >= floor * (1.0 - 1e-9)) ++count;
  }
  return std::max<std::size_t>(count, 1);
}

Pca pca_from_covariance(linalg::Matrix cov) {
  cov.symmetrize();
  linalg::EigenDecomposition eig = linalg::eigen_symmetric(std::move(cov));
  return Pca{std::move(eig.values), std::move(eig.vectors)};
}

std::vector<std::size_t> select_representatives(const Pca& pca,
                                                std::size_t num_components) {
  const std::size_t n = pca.components.rows();
  const std::size_t k = std::min(num_components, n);
  std::vector<bool> taken(n, false);
  std::vector<std::size_t> selected;
  selected.reserve(k);
  for (std::size_t comp = 0; comp < k; ++comp) {
    double best = -1.0;
    std::size_t best_var = 0;
    bool found = false;
    for (std::size_t var = 0; var < n; ++var) {
      if (taken[var]) continue;
      const double l = std::abs(pca.loading(var, comp));
      if (l > best) {
        best = l;
        best_var = var;
        found = true;
      }
    }
    if (!found) break;
    taken[best_var] = true;
    selected.push_back(best_var);
  }
  return selected;
}

}  // namespace effitest::stats
