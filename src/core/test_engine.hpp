#pragma once
// Procedure 2: frequency-stepping delay test with aligned ranges.
//
// The tester applies (T, buffer steps) to the chip under test; a path p_ij
// passes iff  D_ij(true) + x_i - x_j <= T  (setup constraint, eq. 1). Each
// application to a batch is ONE tester iteration regardless of how many
// paths it resolves — that is the entire point of multiplexing and
// alignment. Per path the pass/fail outcome turns T - (x_i - x_j) into a new
// upper or lower delay bound; a path leaves the batch when its range width
// drops below the resolution epsilon.
//
// The engine is inverted around the tester: it never touches simulated die
// state itself. `DelayTestMachine` is the incremental form — it emits one
// `Stimulus` at a time and consumes the pass/fail response, so a physical
// tester (or a streamed protocol, core/tuner_service.hpp) can sit on the
// other side. `TuningSession::drive` runs the machine against a
// `ChipUnderTest`; wrap a simulated die in `core::SimulatedChip` to recover
// the historical in-process behavior bit for bit.

#include <cstddef>
#include <span>
#include <vector>

#include "core/alignment.hpp"
#include "core/multiplexing.hpp"
#include "core/problem.hpp"

namespace effitest::core {

struct TestOptions {
  double epsilon_ps = 0.5;  ///< stop when upper - lower < epsilon
  double k0 = 1000.0;       ///< middle weight (k0 >> kd, §3.3)
  double kd = 1.0;          ///< per-rank weight decrease
  /// false freezes buffers at their current values during test
  /// (multiplexing-without-alignment, Fig. 8 case 2).
  bool align_with_buffers = true;
};

/// Safety stop: tester iterations after which a batch's unresolved paths
/// are force-resolved.
inline constexpr std::size_t kMaxIterationsPerBatch = 2000;

/// One tester iteration's programming: run the chip at clock period `period`
/// with every buffer programmed to `steps`, and observe pass/fail of the
/// `armed` monitored pairs (in order). An empty `armed` set is the final
/// go/no-go production test: the response is one bit for the whole chip.
struct Stimulus {
  double period = 0.0;
  std::vector<int> steps;          ///< full buffer step assignment
  std::vector<std::size_t> armed;  ///< monitored-pair ids observed
};

struct TestRunResult {
  /// Per monitored pair: measured (tested paths) or prior (others) bounds.
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<bool> tested;     ///< which pairs were actually measured
  std::size_t iterations = 0;   ///< total frequency steps on this chip
  std::size_t forced = 0;       ///< paths force-resolved by the safety stop
  std::vector<int> final_steps; ///< buffer state when the test ended
  double align_seconds = 0.0;   ///< time spent choosing (T, x) — column Tt
};

/// Incremental Procedure 2. The machine owns the per-chip test state
/// (bounds, active set, programmed steps) and exposes it one tester
/// iteration at a time:
///
///   DelayTestMachine m(problem, batches, lo, hi, hold, options);
///   while (!m.done()) m.record_response(tester(m.next_stimulus()));
///   TestRunResult r = m.take_result();
///
/// `next_stimulus()` solves the alignment problem for the current
/// unresolved set (idempotent until the response arrives);
/// `record_response` folds the pass/fail bits into the bounds exactly as
/// the historical in-process loop did, so any driver — in-process
/// simulation, the streaming protocol, a replayed log — produces
/// bit-identical results. `problem` and `batches` must outlive the machine.
class DelayTestMachine {
 public:
  DelayTestMachine(const Problem& problem, const std::vector<Batch>& batches,
                   std::span<const double> prior_lower,
                   std::span<const double> prior_upper,
                   std::span<const HoldConstraintX> hold,
                   const TestOptions& options = {});

  [[nodiscard]] bool done() const { return done_; }

  /// The next tester iteration to apply. Computes (and caches) the aligned
  /// (T, x); valid to call repeatedly until record_response. Requires
  /// !done().
  [[nodiscard]] const Stimulus& next_stimulus();

  /// Pass/fail per armed pair of the last next_stimulus(), in order.
  void record_response(const std::vector<bool>& pass);

  /// The accumulated result; bounds/tested/steps are valid at any point,
  /// iteration counters are final once done().
  [[nodiscard]] const TestRunResult& result() const { return result_; }
  [[nodiscard]] TestRunResult&& take_result() { return std::move(result_); }

 private:
  /// Advance past empty/exhausted batches (force-resolving safety-stop
  /// hits) until a stimulus can be emitted or every batch is finished.
  void settle();

  const Problem* problem_;
  const std::vector<Batch>* batches_;
  TestOptions options_;
  /// The alignment instance (hold bounds set once) and the solver scratch,
  /// refilled in place for every stimulus.
  AlignmentInstance instance_;
  AlignmentWorkspace workspace_;
  std::vector<double> centers_;
  std::vector<std::size_t> weight_order_;  ///< middle_out_weights' scratch
  std::vector<double> weights_;
  TestRunResult result_;
  Stimulus stimulus_;
  std::vector<std::size_t> active_;
  std::size_t batch_idx_ = 0;
  std::size_t batch_iters_ = 0;
  bool batch_loaded_ = false;
  bool stimulus_ready_ = false;
  bool done_ = false;
};

/// Number of tester iterations for classic path-wise binary search on one
/// path: halving [lower, upper] until the width is below epsilon. This is
/// what refs. [2,6,8,9] assume and what columns t'a / t'v of Table 1 count.
[[nodiscard]] std::size_t pathwise_iterations(double lower, double upper,
                                              double epsilon);

}  // namespace effitest::core
