#pragma once
// End-to-end EffiTest flow (Fig. 4 of the paper) plus metric collection.
//
// Offline (once per circuit design — column Tp of Table 1):
//   path covariance -> Procedure-1 grouping & PCA selection -> test
//   multiplexing into batches -> empty-slot filling -> conditional-prediction
//   gain precomputation -> hold-bound sampling (§3.5).
//
// Per chip (the tester loop):
//   aligned frequency-stepping test of the batches (Procedure 2, column Tt)
//   -> statistical prediction of untested paths (eqs. 4-5)
//   -> buffer configuration (eqs. 15-18, column Ts)
//   -> final pass/fail test.
//
// The flow also evaluates the comparison points of the paper: path-wise
// frequency stepping (t'a / t'v), configuration under ideal measurement
// (yi) and the untuned circuit (yield without buffers).
// T_d defaults to T1, the median of core::calibration_sample.

#include <cstdint>
#include <memory>
#include <optional>

#include "core/configurator.hpp"
#include "core/grouping.hpp"
#include "core/hold_bounds.hpp"
#include "core/multiplexing.hpp"
#include "core/predictor.hpp"
#include "core/test_engine.hpp"
#include "core/yield.hpp"

namespace effitest::core {

struct FlowOptions {
  GroupingOptions grouping{};
  BatchingOptions batching{};
  TestOptions test{};
  HoldBoundOptions hold{};
  ConfigOptions config{};  ///< unused: configuration has no settings
  std::size_t chips = 1000;     ///< Monte-Carlo dies (paper: 10,000)
  std::uint64_t seed = 2016;
  /// Worker threads for the parallel sections (per-chip tester loop, T_d
  /// calibration, hold-bound sampling, Procedure-1 PCA — all on the shared
  /// pool). Every chip/sample draws from its own seed-derived stream and
  /// reductions fold in a fixed index order, so results are bit-identical
  /// for any value.
  /// 0 = hardware concurrency (the shared-pool width), 1 = serial. The
  /// effective worker count of each section is additionally clamped to its
  /// work-shard count and to the pool width + 1
  /// (parallel::resolve_workers) — the tester loop runs
  /// min(threads, chips, 256, pool width + 1) workers, 256 being the
  /// runtime's shard cap; grouping.threads / hold.threads of 0 inherit
  /// this value.
  std::size_t threads = 0;
  /// Designated clock period T_d; <= 0 selects T1, the median of
  /// core::calibration_sample (50% no-buffer yield).
  double designated_period = 0.0;
  /// Dies in the T_d calibration sample; a constant, not a knob.
  static constexpr std::size_t period_calibration_chips = 2000;
  /// false: skip statistical prediction and test every path (Fig. 8 modes).
  bool use_prediction = true;
  bool fill_slots = true;
  /// <= 0 calibrates epsilon to 6*sigma_median / 2^8.5, matching the
  /// paper's ~8-9 path-wise iterations per path.
  double epsilon_override = 0.0;
};

struct FlowMetrics {
  // Circuit statistics (Table 1 left block).
  std::size_t ns = 0, ng = 0, nb = 0, np = 0, npt = 0;
  std::size_t num_groups = 0, num_batches = 0, num_selected = 0;
  double epsilon_ps = 0.0;
  double designated_period = 0.0;

  // Tester iterations (Table 1 middle block).
  double ta = 0.0;           ///< avg frequency steps per chip (proposed)
  double tv = 0.0;           ///< ta / npt
  double ta_pathwise = 0.0;  ///< t'a: path-wise steps per chip
  double tv_pathwise = 0.0;  ///< t'v = t'a / np
  double ra = 0.0;           ///< reduction % per chip
  double rv = 0.0;           ///< reduction % per tested path

  // Yields (Table 2 / Fig. 7).
  double yield_no_buffer = 0.0;
  double yield_ideal = 0.0;     ///< yi
  double yield_proposed = 0.0;  ///< yt
  double yield_drop = 0.0;      ///< yr = yi - yt

  // Runtimes (Table 1 right block).
  double tp_seconds = 0.0;            ///< offline preparation
  double tt_seconds_per_chip = 0.0;   ///< avg (T, x) computation per chip
  double ts_seconds_per_chip = 0.0;   ///< avg final configuration per chip

  // Diagnostics.
  std::size_t forced_resolutions = 0;
  std::size_t infeasible_configs = 0;

  // Analytic post-tuning SSTA (campaign JobKind::kAnalytic jobs; zero for
  // Monte-Carlo flow jobs). Clark mean/sigma of the untuned and the
  // post-tuning required clock period.
  double untuned_mean = 0.0;
  double untuned_sigma = 0.0;
  double tuned_mean = 0.0;
  double tuned_sigma = 0.0;
};

struct FlowArtifacts {
  SelectionResult selection;
  std::vector<Batch> batches;
  std::vector<std::size_t> tested;  ///< selected + slot-filled, ascending
  std::vector<HoldConstraintX> hold;
  std::vector<double> prior_lower;
  std::vector<double> prior_upper;
  std::optional<DelayPredictor> predictor;
};

struct FlowResult {
  FlowMetrics metrics;
  /// The offline artifacts the run used — shared with (not copied out of)
  /// the TunerService that owned them, never null after run_flow. Reusing
  /// them for a T_d sweep needs no copy (`run_flow(p, o,
  /// result.artifacts)`); copy `*artifacts` to mutate.
  std::shared_ptr<const FlowArtifacts> artifacts;
};

/// Offline preparation only (everything before chips hit the tester).
[[nodiscard]] FlowArtifacts prepare_flow(const Problem& problem,
                                         const FlowOptions& options,
                                         stats::Rng& rng);

/// Full experiment: offline preparation + Monte-Carlo tester loop. Since
/// the TunerService redesign this is a thin Monte-Carlo driver: it builds
/// a `core::TunerService` (which owns the offline phase) and streams
/// sampled dies through per-chip `TuningSession`s as `SimulatedChip`s —
/// bit-identical to the historical fused loop
/// (tests/integration/golden_metrics_test.cpp).
/// `reuse` skips the offline preparation with previously prepared
/// artifacts (legal because they do not depend on the designated period —
/// useful when sweeping T_d over the same circuit, e.g. Table 2). They are
/// aliased, not copied (the campaign fast path — pass `result.artifacts`
/// from an earlier run; null prepares fresh).
[[nodiscard]] FlowResult run_flow(
    const Problem& problem, const FlowOptions& options = {},
    std::shared_ptr<const FlowArtifacts> reuse = nullptr);

/// Calibrated epsilon: 6 * median path sigma / 2^8.5 (see DESIGN.md).
[[nodiscard]] double calibrated_epsilon(const Problem& problem);

}  // namespace effitest::core
