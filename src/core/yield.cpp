#include "core/yield.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/flow.hpp"
#include "parallel/deterministic_for.hpp"
#include "stats/distributions.hpp"

namespace effitest::core {

std::vector<double> buffer_values(const Problem& problem,
                                  std::span<const int> steps) {
  if (steps.size() != problem.num_buffers()) {
    throw std::invalid_argument("buffer_values: step count mismatch");
  }
  std::vector<double> x(steps.size());
  for (std::size_t b = 0; b < steps.size(); ++b) {
    x[b] = problem.buffers()[b].value(steps[b]);
  }
  return x;
}

namespace {

double skew_of(const Problem& problem, std::span<const double> x,
               std::size_t p) {
  double skew = 0.0;
  const int i = problem.src_buffer(p);
  const int j = problem.dst_buffer(p);
  if (i >= 0) skew += x[static_cast<std::size_t>(i)];
  if (j >= 0) skew -= x[static_cast<std::size_t>(j)];
  return skew;
}

}  // namespace

bool chip_passes(const Problem& problem, const timing::Chip& chip,
                 std::span<const double> x, double designated_period) {
  constexpr double kTol = 1e-9;
  const timing::CircuitModel& model = problem.model();
  const double h = model.hold_time();
  for (std::size_t p = 0; p < model.num_pairs(); ++p) {
    const double skew = skew_of(problem, x, p);
    if (chip.max_delay[p] + skew > designated_period + kTol) return false;
    if (skew < h - chip.min_delay[p] - kTol) return false;
  }
  for (double d : chip.static_delay) {
    if (d > designated_period + kTol) return false;
  }
  return true;
}

bool chip_passes_untuned(const Problem& problem, const timing::Chip& chip,
                         double designated_period) {
  const std::vector<double> zeros(problem.num_buffers(), 0.0);
  return chip_passes(problem, chip, zeros, designated_period);
}

std::vector<double> sample_required_periods(const Problem& problem,
                                            std::size_t chips, stats::Rng& rng,
                                            std::size_t threads) {
  if (chips == 0) {
    throw std::invalid_argument("sample_required_periods: chips == 0");
  }
  std::vector<double> required(chips);
  parallel::ForOptions opts;
  opts.threads = threads;
  // Lane-kernel sampling of the max delays only: the same per-die stream
  // and values as sampling full chips, without the hold-path evaluations
  // and per-chip allocations this loop never reads.
  parallel::deterministic_for_blocks<timing::LaneWorkspace>(
      chips, timing::kLanes, timing::kLaneSpanBlocks, opts, rng.engine()(),
      [&](std::size_t first, std::span<stats::Rng> rngs,
          timing::LaneWorkspace& ws) {
        const auto periods = problem.model().sample_required_periods(rngs, ws);
        std::copy_n(periods.begin(), rngs.size(), required.begin() + first);
      });
  std::sort(required.begin(), required.end());
  return required;
}

double period_quantile(const Problem& problem, double q, std::size_t chips,
                       stats::Rng& rng, std::size_t threads) {
  return stats::sorted_quantile(
      sample_required_periods(problem, chips, rng, threads), q);
}

stats::Rng calibration_stream(std::uint64_t seed) {
  return stats::Rng(seed).fork();
}

std::vector<double> calibration_sample(const Problem& nominal,
                                       std::uint64_t seed,
                                       std::size_t threads) {
  stats::Rng rng = calibration_stream(seed);
  return sample_required_periods(nominal, FlowOptions::period_calibration_chips,
                                 rng, threads);
}

}  // namespace effitest::core
