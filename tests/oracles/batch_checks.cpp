#include "batch_checks.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace effitest::core {

std::size_t batch_lower_bound(const Problem& problem,
                              std::span<const std::size_t> paths) {
  const auto& pairs = problem.model().pairs();
  std::unordered_map<int, std::size_t> out_mult;
  std::unordered_map<int, std::size_t> in_mult;
  std::size_t bound = 0;
  for (std::size_t p : paths) {
    bound = std::max(bound, ++out_mult[pairs[p].src_ff]);
    bound = std::max(bound, ++in_mult[pairs[p].dst_ff]);
  }
  return bound;
}

bool batch_is_legal(const Problem& problem, const Batch& batch,
                    const BatchingOptions& options) {
  const auto& pairs = problem.model().pairs();
  const auto excluded_together = [&](std::size_t a, std::size_t b) {
    return std::any_of(options.exclusions.begin(), options.exclusions.end(),
                       [&](const auto& e) {
                         return (e.first == a && e.second == b) ||
                                (e.first == b && e.second == a);
                       });
  };
  std::unordered_set<int> src;
  std::unordered_set<int> dst;
  for (std::size_t i = 0; i < batch.paths.size(); ++i) {
    const std::size_t p = batch.paths[i];
    if (!src.insert(pairs[p].src_ff).second) return false;
    if (!dst.insert(pairs[p].dst_ff).second) return false;
    for (std::size_t j = i + 1; j < batch.paths.size(); ++j) {
      if (excluded_together(p, batch.paths[j])) return false;
    }
  }
  return true;
}

}  // namespace effitest::core
