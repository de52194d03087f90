#pragma once
// TunerService: the streaming per-chip tuning API (paper Fig. 4).
//
// The paper's deployment target is a production tester that tunes one
// physical chip at a time: an offline phase prepared once per circuit
// design, then a per-chip loop of test (Procedure 2) -> statistical
// prediction (eqs. 4-5) -> buffer configuration (eqs. 15-18) -> final
// pass/fail. This header is that boundary, decoupled from any die
// simulator:
//
//  * `ChipUnderTest` — what a tester does: apply one (period, buffer
//    steps) stimulus per iteration and report pass/fail of the armed
//    pairs, plus the final go/no-go production test. `SimulatedChip`
//    adapts a Monte-Carlo die (`timing::Chip`) to the interface.
//  * `TuningSession` — the per-chip state machine. Drive it iteratively
//    (`next_stimulus()` / `record_response()`, e.g. from a line protocol,
//    io/tune_protocol.hpp) or let `drive(chip)` run the whole loop; either
//    way it finishes with a `ChipReport`.
//  * `TunerService` — owns the offline artifacts (`FlowArtifacts`
//    including the cached, aliased `stats::PredictionGain`) behind a
//    shared_ptr and mints sessions. A service is immutable after
//    construction: `begin_chip()` is const and any number of sessions may
//    run concurrently (e.g. on the deterministic pool) against the same
//    artifacts.
//
// Determinism contract: a session is a pure function of the recorded
// responses — no RNG, no hidden state — so every driver (in-process
// simulation, streamed protocol, replayed log) produces bit-identical
// reports, and `run_flow`, rewritten as a thin Monte-Carlo driver over
// this API, pins the historical `FlowMetrics` exactly
// (tests/integration/golden_metrics_test.cpp). See DESIGN.md §10.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/flow.hpp"

namespace effitest::scenario {
struct PreparedCircuit;
}  // namespace effitest::scenario

namespace effitest::obs {
class StructuredLog;
}  // namespace effitest::obs

namespace effitest::core {

/// One physical (or simulated) chip on the tester. Implementations answer
/// stimuli; they never see the engine's bookkeeping.
class ChipUnderTest {
 public:
  virtual ~ChipUnderTest() = default;

  /// One tester iteration of Procedure 2: program `stimulus.steps`, clock
  /// at `stimulus.period`, return pass/fail per `stimulus.armed` pair,
  /// in order.
  [[nodiscard]] virtual std::vector<bool> apply(const Stimulus& stimulus) = 0;

  /// Final production go/no-go at the designated period under the
  /// configured steps (whole chip: setup, hold and background paths).
  [[nodiscard]] virtual bool final_test(double period,
                                        std::span<const int> steps) = 0;
};

/// Adapter: a sampled Monte-Carlo die behaves like a tester-attached chip.
/// `problem` and `chip` must outlive the adapter.
class SimulatedChip final : public ChipUnderTest {
 public:
  SimulatedChip(const Problem& problem, const timing::Chip& chip)
      : problem_(&problem), chip_(&chip) {}

  [[nodiscard]] std::vector<bool> apply(const Stimulus& stimulus) override;
  [[nodiscard]] bool final_test(double period,
                                std::span<const int> steps) override;

  [[nodiscard]] const timing::Chip& chip() const { return *chip_; }

 private:
  const Problem* problem_;
  const timing::Chip* chip_;
};

/// Everything the per-chip loop produced for one die.
struct ChipReport {
  TestRunResult test;       ///< measured bounds, iterations, Tt time
  DelayBounds bounds;       ///< configuration inputs: measured where
                            ///< tested, conditional-Gaussian elsewhere
  ConfigResult config;      ///< buffer steps + xi (eqs. 15-18)
  double designated_period = 0.0;
  /// Final go/no-go outcome; false when configuration was infeasible.
  /// Set on every finished session; nullopt only before kDone.
  std::optional<bool> passed;
  double config_seconds = 0.0;  ///< prediction + configuration — column Ts
};

struct SessionOptions {
  /// Structured event log for session transitions (chip_begin, final_test,
  /// chip_report), or nullptr for none — the zero-overhead default.
  /// Logging never feeds back into tuning: sessions stay pure functions
  /// of their responses (the determinism contract above).
  obs::StructuredLog* log = nullptr;
  /// Identifies the chip in log events (the caller's die index).
  std::uint64_t chip = 0;
};

enum class SessionPhase : std::uint8_t {
  kTest,       ///< Procedure-2 stimuli outstanding
  kFinalTest,  ///< configured; the go/no-go stimulus is outstanding
  kDone,       ///< report() is ready
};

/// Per-chip tuning state machine. Mint one per die via
/// TunerService::begin_chip(); sessions are independent and may run
/// concurrently. Iterative use:
///
///   while (session.phase() != SessionPhase::kDone) {
///     const Stimulus& s = session.next_stimulus();
///     session.record_response(tester_answers(s));  // 1 bit in kFinalTest
///   }
///   const ChipReport& r = session.report();
class TuningSession {
 public:
  TuningSession(const Problem& problem,
                std::shared_ptr<const FlowArtifacts> artifacts,
                double designated_period, const TestOptions& test_options,
                const SessionOptions& options = {});

  [[nodiscard]] SessionPhase phase() const { return phase_; }

  /// The outstanding stimulus (idempotent until answered). In kFinalTest
  /// the armed set is empty: the response is the whole-chip go/no-go bit.
  [[nodiscard]] const Stimulus& next_stimulus();

  /// Answer the outstanding stimulus: pass/fail per armed pair (kTest) or
  /// exactly one bit (kFinalTest).
  void record_response(const std::vector<bool>& pass);

  /// Shorthand for record_response({passed}) in kFinalTest.
  void record_final(bool passed);

  /// Run the whole per-chip loop against an attached chip.
  void drive(ChipUnderTest& chip);

  /// Valid once phase() == kDone.
  [[nodiscard]] const ChipReport& report() const;
  [[nodiscard]] ChipReport&& take_report();

 private:
  /// Test finished: predict untested delays, configure the buffers, and
  /// either arm the final go/no-go stimulus or complete.
  void on_test_complete();
  /// chip_report log event, emitted on every kDone transition.
  void emit_report() const;

  const Problem* problem_;
  std::shared_ptr<const FlowArtifacts> artifacts_;
  double designated_period_ = 0.0;
  SessionOptions options_;
  DelayTestMachine machine_;
  Stimulus final_stimulus_;
  ChipReport report_;
  SessionPhase phase_ = SessionPhase::kTest;
};

/// The offline phase as a long-lived object: designated-period resolution
/// plus `prepare_flow`, with `run_flow`'s seed-fork order, so a Monte-Carlo
/// driver over the service reproduces the flow bit for bit. Immutable after
/// construction; share freely across threads.
class TunerService {
 public:
  /// Prepare from scratch (null `artifacts`), or adopt previously prepared
  /// artifacts WITHOUT copying (the T_d-sweep pattern — the unconditional
  /// hold fork is still taken so downstream streams match a fresh
  /// prepare). The same aliasing contract as the cached PredictionGain:
  /// campaign jobs and T_d sweeps share one artifact object across every
  /// service built on it.
  explicit TunerService(
      const Problem& problem, const FlowOptions& options,
      std::shared_ptr<const FlowArtifacts> artifacts = nullptr);

  /// Provision from a catalog-resolved circuit
  /// (scenario::CircuitCatalog::resolve): the service shares ownership of
  /// the PreparedCircuit — problem() points into it — so the bundle
  /// outlives the catalog and every session minted from here. Throws
  /// std::invalid_argument on a null circuit.
  TunerService(std::shared_ptr<const scenario::PreparedCircuit> circuit,
               const FlowOptions& options);

  /// Mint an independent per-chip session against the shared artifacts.
  [[nodiscard]] TuningSession begin_chip(
      const SessionOptions& options = {}) const;

  [[nodiscard]] const Problem& problem() const { return *problem_; }
  [[nodiscard]] double designated_period() const {
    return designated_period_;
  }
  /// Flow options with the test resolution epsilon resolved
  /// (FlowOptions::epsilon_override / calibrated_epsilon).
  [[nodiscard]] const FlowOptions& options() const { return options_; }
  [[nodiscard]] const TestOptions& test_options() const {
    return options_.test;
  }
  [[nodiscard]] const FlowArtifacts& artifacts() const { return *artifacts_; }
  [[nodiscard]] const std::shared_ptr<const FlowArtifacts>&
  shared_artifacts() const {
    return artifacts_;
  }
  /// Wall time of the offline preparation (column Tp).
  [[nodiscard]] double prepare_seconds() const { return prepare_seconds_; }
  /// The chip-stream seed base a Monte-Carlo driver must use
  /// (parallel::index_seed(base, c) per die) to stay bit-identical with
  /// the historical run_flow chip loop.
  [[nodiscard]] std::uint64_t monte_carlo_seed_base() const {
    return monte_carlo_seed_base_;
  }

 private:
  const Problem* problem_;
  FlowOptions options_;
  double designated_period_ = 0.0;
  std::shared_ptr<const FlowArtifacts> artifacts_;
  /// Keepalive for the catalog-provisioned bundle problem_ points into
  /// (null when constructed from a caller-owned Problem).
  std::shared_ptr<const scenario::PreparedCircuit> circuit_;
  double prepare_seconds_ = 0.0;
  std::uint64_t monte_carlo_seed_base_ = 0;
};

}  // namespace effitest::core
