#pragma once
// The EffiTest flow two ways, for the tune_stream and prep_campaign
// workloads:
//
//  * through the library's own drivers (core::TunerService,
//    TuningSession::drive) — what the measured runs time;
//  * call by call through the public functions those drivers are made of
//    (period_quantile, max_covariance, select_paths, build_batches,
//    PredictionGain::compute, fill_empty_slots, compute_hold_bounds,
//    DelayTestMachine, DelayPredictor::predict, configure_buffers, ...),
//    one span per call — what the traced runs time. The traced runs check
//    that the call-by-call results equal the drivers' bit for bit.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/flow.hpp"
#include "core/tuner_service.hpp"
#include "trace.hpp"

namespace effibench {

namespace core = effitest::core;

/// What a core::TunerService holds, rebuilt call by call.
struct Offline {
  core::FlowOptions options;  ///< designated period and epsilon resolved
  std::shared_ptr<const core::FlowArtifacts> artifacts;
  std::uint64_t seed_base = 0;  ///< die c samples Rng(index_seed(base, c))
};

/// TunerService construction (T1 calibration, epsilon, prepare_flow with
/// prediction and slot filling), one span per public call.
[[nodiscard]] Offline prepare_offline(const core::Problem& problem,
                                      const core::FlowOptions& options,
                                      Tracer& tracer);

/// One die of the tester stream.
struct DieResult {
  core::ChipReport report;
  bool pass_ideal = false;    ///< passes under ideal configuration (yi)
  bool pass_untuned = false;  ///< passes with buffers at zero
  double seconds = 0.0;       ///< host time, sample -> final test
};

/// Die `c` through service.begin_chip().drive().
[[nodiscard]] DieResult tune_die(const core::TunerService& service,
                                 std::size_t c);

/// Die `c` call by call, spans timing.sample, core.test, core.predict,
/// core.configure, core.final_test and core.reference.
[[nodiscard]] DieResult tune_die_traced(const core::Problem& problem,
                                        const Offline& offline, std::size_t c,
                                        Tracer& tracer);

/// 64-bit FNV-1a digest of every deterministic bit of a die's result (the
/// wall-clock fields excluded): equal digests = bit-identical results, up
/// to hash collisions. Kept instead of the reports, which are ~10 KB each.
[[nodiscard]] std::uint64_t digest(const DieResult& d);

/// Integer tallies over a die set; folds to run_flow's FlowMetrics fields.
struct Tally {
  std::size_t dies = 0;
  std::size_t iterations = 0;
  std::size_t stimuli = 0;  ///< iterations + the final go/no-go stimulus
  std::size_t forced = 0;
  std::size_t infeasible = 0;
  std::size_t pass_proposed = 0;
  std::size_t pass_ideal = 0;
  std::size_t pass_untuned = 0;

  void add(const DieResult& d);
};

/// The FlowMetrics run_flow reports for these tallies (ta, ra, yields,
/// counts), given the artifacts and resolved options that produced them.
[[nodiscard]] core::FlowMetrics flow_metrics(const core::Problem& problem,
                                             const core::FlowArtifacts& art,
                                             const core::FlowOptions& options,
                                             const Tally& tally);

/// Equality of the deterministic FlowMetrics fields (runtimes excluded).
[[nodiscard]] bool same_metrics(const core::FlowMetrics& a,
                                const core::FlowMetrics& b);

}  // namespace effibench
