#include "core/multiplexing.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace effitest::core {

namespace {

struct EndpointIndex {
  std::unordered_map<int, int> left;   // src FF -> node id
  std::unordered_map<int, int> right;  // dst FF -> node id
  std::vector<int> src_node;           // per path position
  std::vector<int> dst_node;

  EndpointIndex(const Problem& problem, std::span<const std::size_t> paths) {
    const auto& pairs = problem.model().pairs();
    src_node.reserve(paths.size());
    dst_node.reserve(paths.size());
    for (std::size_t p : paths) {
      const auto& pr = pairs[p];
      src_node.push_back(static_cast<int>(
          left.try_emplace(pr.src_ff, static_cast<int>(left.size())).first->second));
      dst_node.push_back(static_cast<int>(
          right.try_emplace(pr.dst_ff, static_cast<int>(right.size())).first->second));
    }
  }
};

[[nodiscard]] bool excluded_together(
    const std::vector<std::pair<std::size_t, std::size_t>>& exclusions,
    std::size_t a, std::size_t b) {
  for (const auto& [x, y] : exclusions) {
    if ((x == a && y == b) || (x == b && y == a)) return true;
  }
  return false;
}

std::vector<Batch> greedy_batches(const Problem& problem,
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

/// Optimal Delta-coloring of the bipartite multigraph (König): every edge is
/// colored with one of Delta colors via alternating-chain recoloring; batches
/// are the color classes.
std::vector<Batch> coloring_batches(const Problem& problem,
                                    std::span<const std::size_t> paths) {
  const EndpointIndex idx(problem, paths);
  const std::size_t ne = paths.size();
  std::vector<int> degree_left(idx.left.size(), 0);
  std::vector<int> degree_right(idx.right.size(), 0);
  for (std::size_t e = 0; e < ne; ++e) {
    ++degree_left[static_cast<std::size_t>(idx.src_node[e])];
    ++degree_right[static_cast<std::size_t>(idx.dst_node[e])];
  }
  int delta = 0;
  for (int d : degree_left) delta = std::max(delta, d);
  for (int d : degree_right) delta = std::max(delta, d);
  if (delta == 0) return {};

  const auto dl = static_cast<std::size_t>(delta);
  // at_left[u * delta + c] = edge index colored c at left node u (or -1).
  std::vector<int> at_left(idx.left.size() * dl, -1);
  std::vector<int> at_right(idx.right.size() * dl, -1);
  std::vector<int> color(ne, -1);

  const auto free_color = [&](const std::vector<int>& table, int node) {
    for (std::size_t c = 0; c < dl; ++c) {
      if (table[static_cast<std::size_t>(node) * dl + c] < 0) {
        return static_cast<int>(c);
      }
    }
    throw std::logic_error("edge coloring: no free color (degree > delta?)");
  };

  for (std::size_t e = 0; e < ne; ++e) {
    const int u = idx.src_node[e];
    const int v = idx.dst_node[e];
    const int a = free_color(at_left, u);
    const int b = free_color(at_right, v);
    if (a != b) {
      // Flip the (a,b)-alternating chain starting at v with color a. The
      // chain cannot reach u (König argument), so a becomes free at both.
      std::vector<int> chain;
      int side_right = 1;  // current node side: 1 = right, 0 = left
      int node = v;
      int want = a;
      while (true) {
        const int f = side_right
                          ? at_right[static_cast<std::size_t>(node) * dl +
                                     static_cast<std::size_t>(want)]
                          : at_left[static_cast<std::size_t>(node) * dl +
                                    static_cast<std::size_t>(want)];
        if (f < 0) break;
        chain.push_back(f);
        node = side_right ? idx.src_node[static_cast<std::size_t>(f)]
                          : idx.dst_node[static_cast<std::size_t>(f)];
        side_right ^= 1;
        want = (want == a) ? b : a;
      }
      // Clear old colors, then re-add swapped.
      for (int f : chain) {
        const auto fe = static_cast<std::size_t>(f);
        at_left[static_cast<std::size_t>(idx.src_node[fe]) * dl +
                static_cast<std::size_t>(color[fe])] = -1;
        at_right[static_cast<std::size_t>(idx.dst_node[fe]) * dl +
                 static_cast<std::size_t>(color[fe])] = -1;
      }
      for (int f : chain) {
        const auto fe = static_cast<std::size_t>(f);
        color[fe] = (color[fe] == a) ? b : a;
        at_left[static_cast<std::size_t>(idx.src_node[fe]) * dl +
                static_cast<std::size_t>(color[fe])] = f;
        at_right[static_cast<std::size_t>(idx.dst_node[fe]) * dl +
                 static_cast<std::size_t>(color[fe])] = f;
      }
    }
    color[e] = a;
    at_left[static_cast<std::size_t>(u) * dl + static_cast<std::size_t>(a)] =
        static_cast<int>(e);
    at_right[static_cast<std::size_t>(v) * dl + static_cast<std::size_t>(a)] =
        static_cast<int>(e);
  }

  std::vector<Batch> batches(dl);
  for (std::size_t e = 0; e < ne; ++e) {
    batches[static_cast<std::size_t>(color[e])].paths.push_back(paths[e]);
  }
  batches.erase(std::remove_if(batches.begin(), batches.end(),
                               [](const Batch& b) { return b.paths.empty(); }),
                batches.end());
  return batches;
}

}  // namespace

std::vector<Batch> build_batches(const Problem& problem,
                                 std::span<const std::size_t> paths,
                                 const BatchingOptions& options) {
  if (paths.empty()) return {};
  if (!options.optimal_coloring || !options.exclusions.empty()) {
    return greedy_batches(problem, paths, options);
  }
  return coloring_batches(problem, paths);
}

std::vector<std::size_t> fill_empty_slots(const Problem& problem,
                                          std::vector<Batch>& batches,
                                          std::span<const std::size_t> candidates,
                                          const BatchingOptions& options,
                                          std::span<const double> centers) {
  std::vector<std::size_t> inserted;
  if (batches.empty()) return inserted;
  const auto& pairs = problem.model().pairs();
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
      if (centers.empty()) {
        best = &b;
        break;  // first fit
      }
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
