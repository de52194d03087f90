#include "core/grouping.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "parallel/deterministic_for.hpp"
#include "stats/pca.hpp"

namespace effitest::core {

std::vector<std::vector<std::size_t>> correlation_clusters(
    const linalg::Matrix& cov) {
  if (!cov.is_square()) {
    throw std::invalid_argument("correlation_clusters: covariance not square");
  }
  const std::size_t n = cov.rows();
  std::vector<std::vector<std::size_t>> clusters;
  if (n == 0) return clusters;

  std::vector<double> sigma(n);
  for (std::size_t i = 0; i < n; ++i) {
    sigma[i] = std::sqrt(std::max(cov(i, i), 0.0));
  }
  std::vector<std::size_t> remaining(n);
  for (std::size_t i = 0; i < n; ++i) remaining[i] = i;

  double threshold = kCorrStart;
  while (!remaining.empty()) {
    // extract_paths(P, corr_th): seed with the first remaining path, pull in
    // every path whose correlation with the seed reaches the threshold.
    const std::size_t seed = remaining.front();
    std::vector<std::size_t> members;
    std::vector<std::size_t> rest;
    for (std::size_t idx : remaining) {
      double corr = 1.0;
      if (idx != seed) {
        const double denom = sigma[seed] * sigma[idx];
        corr = denom > 0.0 ? cov(seed, idx) / denom : 0.0;
      }
      if (corr >= threshold || threshold <= 0.0) {
        members.push_back(idx);
      } else {
        rest.push_back(idx);
      }
    }
    remaining = std::move(rest);
    clusters.push_back(std::move(members));
    threshold -= kCorrStep;
  }
  return clusters;
}

SelectionResult select_paths(const linalg::Matrix& cov,
                             const GroupingOptions& options) {
  SelectionResult out;
  const std::vector<std::vector<std::size_t>> clusters =
      correlation_clusters(cov);

  // Thresholds replay the serial round schedule (repeated subtraction, not
  // kCorrStart - g*kCorrStep, to keep the recorded values bit-identical to
  // the historical serial loop).
  std::vector<double> thresholds(clusters.size());
  double threshold = kCorrStart;
  for (std::size_t g = 0; g < clusters.size(); ++g) {
    thresholds[g] = threshold;
    threshold -= kCorrStep;
  }

  // The per-group covariance-block assembly + eigendecomposition is
  // independent across groups: each group writes only its own slot, so the
  // pool fans groups out while the result stays bit-identical for any
  // worker count.
  out.groups.resize(clusters.size());
  parallel::ForOptions fopts;
  fopts.threads = options.threads;
  parallel::deterministic_for(clusters.size(), fopts, [&](std::size_t gi) {
    const std::vector<std::size_t>& members = clusters[gi];
    PathGroup group;
    group.threshold = thresholds[gi];
    group.members = members;

    // PCA of the group's covariance block. Very large groups are
    // decomposed on a deterministic stride subsample (see GroupingOptions).
    std::vector<std::size_t> basis = members;
    if (members.size() > options.pca_max_block) {
      basis.clear();
      const double stride = static_cast<double>(members.size()) /
                            static_cast<double>(options.pca_max_block);
      for (std::size_t k = 0; k < options.pca_max_block; ++k) {
        basis.push_back(members[static_cast<std::size_t>(
            static_cast<double>(k) * stride)]);
      }
    }
    const std::size_t m = basis.size();
    linalg::Matrix block(m, m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        block(i, j) = cov(basis[i], basis[j]);
      }
    }
    const stats::Pca pca = stats::pca_from_covariance(std::move(block));
    group.num_components =
        options.use_kaiser
            ? pca.significant_by_kaiser()
            : pca.significant_components(options.pca_coverage);
    const std::vector<std::size_t> local =
        stats::select_representatives(pca, group.num_components);
    for (std::size_t l : local) group.selected.push_back(basis[l]);
    std::sort(group.selected.begin(), group.selected.end());

    out.groups[gi] = std::move(group);
  });

  for (const PathGroup& g : out.groups) {
    out.tested.insert(out.tested.end(), g.selected.begin(), g.selected.end());
  }
  std::sort(out.tested.begin(), out.tested.end());
  return out;
}

}  // namespace effitest::core
