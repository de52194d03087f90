#include "core/hold_bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "parallel/deterministic_for.hpp"

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

std::vector<double> greedy_discard_bounds(
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

HoldMarginSamples sample_hold_margins(const Problem& problem, stats::Rng& rng,
                                      const HoldBoundOptions& options) {
  const timing::CircuitModel& model = problem.model();
  const double h = model.hold_time();
  HoldMarginSamples out;

  // Pairs whose skew is adjustable (at least one buffered endpoint).
  for (std::size_t p = 0; p < model.num_pairs(); ++p) {
    if (problem.src_buffer(p) >= 0 || problem.dst_buffer(p) >= 0) {
      out.exposed.push_back(p);
    }
  }
  if (out.exposed.empty()) return out;

  // Sample hold margins delta = h - d_min over M chips, fanned out over the
  // shared pool. Sample k draws from its own stream seeded
  // index_seed(base, k), so the margins — and therefore the bounds — are
  // bit-identical for any worker count.
  const std::uint64_t sample_seed_base = rng.engine()();
  out.delta.resize(options.samples);
  parallel::ForOptions fopts;
  fopts.threads = options.threads;
  parallel::deterministic_for(
      options.samples, fopts, sample_seed_base,
      [&](std::size_t k, stats::Rng& sample_rng) {
        // Min-delays-only sampling (same per-sample stream as a full
        // sample_chip) on per-worker reusable buffers: this loop reads
        // nothing but the hold margins.
        thread_local timing::SampleWorkspace ws;
        thread_local std::vector<double> min_delay;
        model.sample_min_delays(sample_rng, ws, min_delay);
        out.delta[k].resize(out.exposed.size());
        for (std::size_t e = 0; e < out.exposed.size(); ++e) {
          out.delta[k][e] = h - min_delay[out.exposed[e]];
        }
      });
  return out;
}

std::vector<HoldConstraintX> compute_hold_bounds(
    const Problem& problem, stats::Rng& rng, const HoldBoundOptions& options) {
  const HoldMarginSamples samples = sample_hold_margins(problem, rng, options);
  const std::vector<std::size_t>& exposed = samples.exposed;
  if (exposed.empty()) return {};
  const std::vector<std::vector<double>>& delta = samples.delta;

  const std::vector<double> lambda =
      greedy_discard_bounds(delta, kHoldYield);

  // Merge per buffer combination (max lambda binds) and prune bounds that
  // can never bind within the buffer ranges.
  std::map<std::pair<int, int>, double> merged;
  for (std::size_t e = 0; e < exposed.size(); ++e) {
    const std::size_t p = exposed[e];
    const auto key = std::make_pair(problem.src_buffer(p), problem.dst_buffer(p));
    const auto it = merged.find(key);
    if (it == merged.end()) {
      merged.emplace(key, lambda[e]);
    } else {
      it->second = std::max(it->second, lambda[e]);
    }
  }

  std::vector<HoldConstraintX> out;
  for (const auto& [key, lam] : merged) {
    const auto [i, j] = key;
    // Minimum achievable skew x_i - x_j given the ranges.
    double min_skew = 0.0;
    if (i >= 0) min_skew += problem.buffers()[static_cast<std::size_t>(i)].r;
    if (j >= 0) {
      const auto& bj = problem.buffers()[static_cast<std::size_t>(j)];
      min_skew -= bj.r + bj.tau;
    }
    if (lam <= min_skew) continue;  // never binds
    out.push_back(HoldConstraintX{i, j, lam});
  }
  return out;
}

}  // namespace effitest::core
