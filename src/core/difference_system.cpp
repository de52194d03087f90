#include "core/difference_system.hpp"

#include <algorithm>
#include <limits>

namespace effitest::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoPred = std::numeric_limits<std::size_t>::max();
}  // namespace

BoundTable::BoundTable(std::size_t n)
    : nodes(n), hard(n * n, kInf), soft(n * n, kInf) {}

void BoundTable::tighten(std::size_t from, std::size_t to, double bound,
                         bool is_soft) {
  double& cell = (is_soft ? soft : hard)[from * nodes + to];
  cell = std::min(cell, bound);
}

bool DifferenceSystem::solve() {
  dist_.assign(nodes_, 0.0);
  pred_.assign(nodes_, kNoPred);
  witness_.clear();
  // Simple paths have at most nodes - 1 edges, so round nodes - 1 (the
  // last) relaxes an edge only when a negative cycle exists.
  for (std::size_t round = 0; round < nodes_; ++round) {
    bool changed = false;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto from = static_cast<std::size_t>(edges[e].from);
      const auto to = static_cast<std::size_t>(edges[e].to);
      const double cand = dist_[from] + edges[e].weight;
      if (!(cand < dist_[to])) continue;
      dist_[to] = cand;
      pred_[to] = e;
      if (round + 1 == nodes_) {
        trace_cycle(to);
        return false;
      }
      changed = true;
    }
    if (!changed) return true;
  }
  return true;
}

void DifferenceSystem::trace_cycle(std::size_t node) {
  // After a last-round relaxation the predecessor chain of `node` cannot
  // be a simple path from the source, so it enters a cycle within nodes
  // steps; that cycle is negative.
  for (std::size_t i = 0; i < nodes_; ++i) {
    if (pred_[node] == kNoPred) return;
    node = static_cast<std::size_t>(edges[pred_[node]].from);
  }
  std::size_t v = node;
  do {
    witness_.push_back(pred_[v]);
    v = static_cast<std::size_t>(edges[pred_[v]].from);
  } while (v != node);
  std::reverse(witness_.begin(), witness_.end());
}

}  // namespace effitest::core
