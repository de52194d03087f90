#include "batch_checks.hpp"

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

}  // namespace

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

// Every edge is colored with one of Delta colors via alternating-chain
// recoloring; batches are the color classes.
std::vector<Batch> optimal_batches(const Problem& problem,
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
