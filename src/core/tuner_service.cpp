#include "core/tuner_service.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/yield.hpp"
#include "obs/log.hpp"
#include "scenario/circuit_catalog.hpp"
#include "stats/distributions.hpp"

namespace effitest::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::vector<bool> SimulatedChip::apply(const Stimulus& stimulus) {
  std::vector<bool> pass(stimulus.armed.size());
  for (std::size_t i = 0; i < stimulus.armed.size(); ++i) {
    const std::size_t p = stimulus.armed[i];
    const double skew = problem_->pair_skew(p, stimulus.steps);
    pass[i] = chip_->max_delay[p] + skew <= stimulus.period + 1e-12;
  }
  return pass;
}

bool SimulatedChip::final_test(double period, std::span<const int> steps) {
  return chip_passes(*problem_, *chip_, buffer_values(*problem_, steps),
                     period);
}

TuningSession::TuningSession(const Problem& problem,
                             std::shared_ptr<const FlowArtifacts> artifacts,
                             double designated_period,
                             const TestOptions& test_options,
                             const SessionOptions& options)
    : problem_(&problem),
      artifacts_(std::move(artifacts)),
      designated_period_(designated_period),
      options_(options),
      machine_(problem, artifacts_->batches, artifacts_->prior_lower,
               artifacts_->prior_upper, artifacts_->hold, test_options) {
  if (options_.log != nullptr) {
    options_.log->emit("session", "chip_begin",
                       {obs::LogField::u64("chip", options_.chip)});
  }
  if (machine_.done()) on_test_complete();  // degenerate: nothing to test
}

const Stimulus& TuningSession::next_stimulus() {
  switch (phase_) {
    case SessionPhase::kTest:
      return machine_.next_stimulus();
    case SessionPhase::kFinalTest:
      return final_stimulus_;
    case SessionPhase::kDone:
      break;
  }
  throw std::logic_error("TuningSession: next_stimulus after kDone");
}

void TuningSession::record_response(const std::vector<bool>& pass) {
  switch (phase_) {
    case SessionPhase::kTest:
      machine_.record_response(pass);
      if (machine_.done()) on_test_complete();
      return;
    case SessionPhase::kFinalTest:
      if (pass.size() != 1) {
        throw std::invalid_argument(
            "TuningSession: the final go/no-go response is one bit");
      }
      record_final(pass[0]);
      return;
    case SessionPhase::kDone:
      break;
  }
  throw std::logic_error("TuningSession: record_response after kDone");
}

void TuningSession::record_final(bool passed) {
  if (phase_ != SessionPhase::kFinalTest) {
    throw std::logic_error(
        "TuningSession: record_final outside the final-test phase");
  }
  report_.passed = passed;
  phase_ = SessionPhase::kDone;
  emit_report();
}

void TuningSession::emit_report() const {
  if (options_.log == nullptr) return;
  options_.log->emit(
      "session", "chip_report",
      {obs::LogField::u64("chip", options_.chip),
       obs::LogField::u64("iterations",
                          static_cast<std::uint64_t>(report_.test.iterations)),
       obs::LogField::boolean("feasible", report_.config.feasible),
       obs::LogField::str("passed", *report_.passed ? "1" : "0")});
}

void TuningSession::on_test_complete() {
  report_.test = machine_.take_result();
  report_.designated_period = designated_period_;

  const auto ts0 = Clock::now();
  const FlowArtifacts& art = *artifacts_;
  if (art.predictor) {
    // Delay ranges for configuration: measured where tested, predicted
    // elsewhere (conditioned on the measured upper bounds, §3.4).
    std::vector<double> meas_lower(art.tested.size());
    std::vector<double> meas_upper(art.tested.size());
    for (std::size_t t = 0; t < art.tested.size(); ++t) {
      meas_lower[t] = report_.test.lower[art.tested[t]];
      meas_upper[t] = report_.test.upper[art.tested[t]];
    }
    report_.bounds = art.predictor->predict(meas_lower, meas_upper);
  } else {
    report_.bounds.lower = report_.test.lower;
    report_.bounds.upper = report_.test.upper;
  }
  report_.config =
      configure_buffers(*problem_, designated_period_, report_.bounds.lower,
                        report_.bounds.upper, art.hold);
  report_.config_seconds = seconds_since(ts0);

  if (report_.config.feasible) {
    final_stimulus_.period = designated_period_;
    final_stimulus_.steps = report_.config.steps;
    final_stimulus_.armed.clear();
    phase_ = SessionPhase::kFinalTest;
    if (options_.log != nullptr) {
      options_.log->emit(
          "session", "final_test",
          {obs::LogField::u64("chip", options_.chip),
           obs::LogField::f64("period", designated_period_)});
    }
  } else {
    // An infeasible configuration rejects the chip outright.
    report_.passed = false;
    phase_ = SessionPhase::kDone;
    emit_report();
  }
}

void TuningSession::drive(ChipUnderTest& chip) {
  while (phase_ != SessionPhase::kDone) {
    const Stimulus& stimulus = next_stimulus();
    if (phase_ == SessionPhase::kTest) {
      record_response(chip.apply(stimulus));
    } else {
      record_final(chip.final_test(stimulus.period, stimulus.steps));
    }
  }
}

const ChipReport& TuningSession::report() const {
  if (phase_ != SessionPhase::kDone) {
    throw std::logic_error("TuningSession: report before kDone");
  }
  return report_;
}

ChipReport&& TuningSession::take_report() {
  if (phase_ != SessionPhase::kDone) {
    throw std::logic_error("TuningSession: take_report before kDone");
  }
  return std::move(report_);
}

namespace {
const Problem& checked_problem(
    const std::shared_ptr<const scenario::PreparedCircuit>& circuit) {
  if (circuit == nullptr) {
    throw std::invalid_argument("TunerService: null PreparedCircuit");
  }
  return circuit->problem;
}
}  // namespace

TunerService::TunerService(
    std::shared_ptr<const scenario::PreparedCircuit> circuit,
    const FlowOptions& options)
    : TunerService(checked_problem(circuit), options) {
  circuit_ = std::move(circuit);
}

TunerService::TunerService(const Problem& problem, const FlowOptions& options,
                           std::shared_ptr<const FlowArtifacts> artifacts)
    : problem_(&problem), options_(options) {
  // Seed-fork order is the run_flow contract (DESIGN.md §4): calibration,
  // hold and chip-base forks, all taken whatever the options, so an
  // explicit T_d equal to the calibrated one is the calibrated run.
  stats::Rng rng(options_.seed);
  (void)rng.fork();  // calibration_stream(options_.seed)

  designated_period_ = options_.designated_period;
  if (designated_period_ <= 0.0) {
    designated_period_ = stats::sorted_quantile(
        calibration_sample(problem, options_.seed, options_.threads), 0.5);
  }
  options_.designated_period = designated_period_;

  if (options_.epsilon_override > 0.0) {
    options_.test.epsilon_ps = options_.epsilon_override;
  } else {
    options_.test.epsilon_ps = calibrated_epsilon(problem);
  }

  const auto tp0 = Clock::now();
  stats::Rng hold_rng = rng.fork();
  if (artifacts != nullptr) {
    artifacts_ = std::move(artifacts);  // aliased, not copied
  } else {
    artifacts_ = std::make_shared<const FlowArtifacts>(
        prepare_flow(problem, options_, hold_rng));
  }
  prepare_seconds_ = seconds_since(tp0);

  monte_carlo_seed_base_ = rng.fork().engine()();
}

TuningSession TunerService::begin_chip(const SessionOptions& options) const {
  return TuningSession(*problem_, artifacts_, designated_period_,
                       options_.test, options);
}

}  // namespace effitest::core
