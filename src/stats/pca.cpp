#include "stats/pca.hpp"

#include <algorithm>
#include <cmath>

namespace effitest::stats {

namespace {

/// Relative tolerance for "equal" eigenvalues and loadings: absorbs solver
/// rounding, far below any real difference between components or paths.
constexpr double kRelTol = 1e-9;

}  // namespace

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
    if (v >= floor * (1.0 - kRelTol)) ++count;
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
    for (std::size_t var = 0; var < n; ++var) {
      if (!taken[var]) best = std::max(best, std::abs(pca.loading(var, comp)));
    }
    // Exchangeable paths load equally up to rounding; the lowest index
    // among them wins, whichever one the solver happened to favour.
    for (std::size_t var = 0; var < n; ++var) {
      if (!taken[var] &&
          std::abs(pca.loading(var, comp)) >= best * (1.0 - kRelTol)) {
        taken[var] = true;
        selected.push_back(var);
        break;
      }
    }
  }
  return selected;
}

}  // namespace effitest::stats
