#include "core/multiplexing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace effitest::core {

namespace {

[[nodiscard]] bool excluded_together(
    const std::vector<std::pair<std::size_t, std::size_t>>& exclusions,
    std::size_t a, std::size_t b) {
  for (const auto& [x, y] : exclusions) {
    if ((x == a && y == b) || (x == b && y == a)) return true;
  }
  return false;
}

}  // namespace

std::vector<Batch> build_batches(const Problem& problem,
                                 std::span<const std::size_t> paths,
                                 const BatchingOptions& options) {
  const auto& pairs = problem.model().pairs();
  std::vector<Batch> batches;
  std::vector<std::unordered_set<int>> used_src;
  std::vector<std::unordered_set<int>> used_dst;
  for (std::size_t p : paths) {
    bool placed = false;
    for (std::size_t b = 0; b < batches.size() && !placed; ++b) {
      if (used_src[b].contains(pairs[p].src_ff) ||
          used_dst[b].contains(pairs[p].dst_ff)) {
        continue;
      }
      bool blocked = false;
      for (std::size_t q : batches[b].paths) {
        if (excluded_together(options.exclusions, p, q)) {
          blocked = true;
          break;
        }
      }
      if (blocked) continue;
      batches[b].paths.push_back(p);
      used_src[b].insert(pairs[p].src_ff);
      used_dst[b].insert(pairs[p].dst_ff);
      placed = true;
    }
    if (!placed) {
      batches.push_back(Batch{{p}});
      used_src.push_back({pairs[p].src_ff});
      used_dst.push_back({pairs[p].dst_ff});
    }
  }
  return batches;
}

std::vector<std::size_t> fill_empty_slots(const Problem& problem,
                                          std::vector<Batch>& batches,
                                          std::span<const std::size_t> candidates,
                                          const BatchingOptions& options,
                                          std::span<const double> centers) {
  const auto& pairs = problem.model().pairs();
  if (centers.size() != pairs.size()) {
    throw std::invalid_argument(
        "fill_empty_slots: one center per monitored pair is required");
  }
  std::vector<std::size_t> inserted;
  if (batches.empty()) return inserted;
  std::size_t target = 0;
  for (const Batch& b : batches) target = std::max(target, b.paths.size());

  const auto batch_center = [&](const Batch& b) {
    double acc = 0.0;
    for (std::size_t q : b.paths) acc += centers[q];
    return acc / static_cast<double>(b.paths.size());
  };

  std::unordered_set<std::size_t> used;
  for (std::size_t cand : candidates) {
    if (used.contains(cand)) continue;
    Batch* best = nullptr;
    double best_dist = 0.0;
    for (Batch& b : batches) {
      if (b.paths.size() >= target) continue;
      bool conflict = false;
      for (std::size_t q : b.paths) {
        if (pairs[q].src_ff == pairs[cand].src_ff ||
            pairs[q].dst_ff == pairs[cand].dst_ff ||
            excluded_together(options.exclusions, cand, q)) {
          conflict = true;
          break;
        }
      }
      if (conflict) continue;
      const double dist = std::abs(batch_center(b) - centers[cand]);
      if (best == nullptr || dist < best_dist) {
        best = &b;
        best_dist = dist;
      }
    }
    if (best != nullptr) {
      best->paths.push_back(cand);
      used.insert(cand);
      inserted.push_back(cand);
    }
  }
  return inserted;
}

}  // namespace effitest::core
