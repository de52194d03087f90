#include "core/hold_bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>

#include "parallel/deterministic_for.hpp"

namespace effitest::core {

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
  const std::size_t to_drop = m > keep ? m - keep : 0;

  // Each pair's samples are ranked once, by margin descending (ties by
  // sample index), in one row-order pass. At most to_drop samples are ever
  // dropped, so a pair's kept top two lie within its first to_drop + 2
  // ranks, and only those are kept.
  const std::size_t depth = std::min(m, to_drop + 2);
  std::vector<double> rank_value(n_pairs * depth);
  std::vector<std::size_t> rank_sample(n_pairs * depth);
  std::vector<std::size_t> ranked(n_pairs, 0);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t p = 0; p < n_pairs; ++p) {
      const double v = delta[k][p];
      double* value = rank_value.data() + p * depth;
      std::size_t* sample = rank_sample.data() + p * depth;
      std::size_t pos = ranked[p];
      if (pos == depth) {
        if (!(v > value[depth - 1])) continue;
        pos = depth - 1;
      } else {
        ++ranked[p];
      }
      for (; pos > 0 && v > value[pos - 1]; --pos) {
        value[pos] = value[pos - 1];
        sample[pos] = sample[pos - 1];
      }
      value[pos] = v;
      sample[pos] = k;
    }
  }

  // Each round drops the sample whose removal shrinks sum(lambda) most: its
  // benefit is the sum, in ascending pair order, of the top-two gaps of the
  // pairs whose max it attains (within 1e-15). Pairs add their gaps to
  // their qualifying samples in that order, so every benefit is summed
  // exactly as a full rescan of the kept samples would sum it.
  std::vector<bool> dropped(m, false);
  std::vector<double> benefit(m);
  for (std::size_t round = 0; round < to_drop; ++round) {
    std::fill(benefit.begin(), benefit.end(), 0.0);
    for (std::size_t p = 0; p < n_pairs; ++p) {
      const double* value = rank_value.data() + p * depth;
      const std::size_t* sample = rank_sample.data() + p * depth;
      std::size_t first = 0;
      while (dropped[sample[first]]) ++first;
      std::size_t next = first + 1;
      while (next < depth && dropped[sample[next]]) ++next;
      const double max = value[first];
      const double second = next < depth
                                ? value[next]
                                : -std::numeric_limits<double>::infinity();
      const double gap = max - second;
      const double floor = max - 1e-15;
      if (depth < m && value[depth - 1] >= floor) {
        // Ties reach past the ranked prefix: scan the whole pair.
        for (std::size_t k = 0; k < m; ++k) {
          if (!dropped[k] && delta[k][p] >= floor) benefit[k] += gap;
        }
        continue;
      }
      for (std::size_t r = first; r < depth && value[r] >= floor; ++r) {
        if (!dropped[sample[r]]) benefit[sample[r]] += gap;
      }
    }
    double best_benefit = -1.0;
    std::size_t best_k = m;
    for (std::size_t k = 0; k < m; ++k) {
      if (!dropped[k] && benefit[k] > best_benefit) {
        best_benefit = benefit[k];
        best_k = k;
      }
    }
    if (best_k == m) break;
    dropped[best_k] = true;
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
  // Lane-kernel sampling of the min delays only (same per-sample streams
  // as full sample_chip calls): this loop reads nothing but the margins.
  parallel::deterministic_for_blocks<timing::LaneWorkspace>(
      options.samples, timing::kLanes, timing::kLaneSpanBlocks, fopts,
      sample_seed_base,
      [&](std::size_t first, std::span<stats::Rng> rngs,
          timing::LaneWorkspace& ws) {
        const std::span<const double> min_delay =
            model.sample_min_delays(rngs, ws);
        for (std::size_t b = 0; b < rngs.size(); ++b) {
          std::vector<double>& row = out.delta[first + b];
          row.resize(out.exposed.size());
          for (std::size_t e = 0; e < out.exposed.size(); ++e) {
            row[e] = h - min_delay[out.exposed[e] * timing::kLanes + b];
          }
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
