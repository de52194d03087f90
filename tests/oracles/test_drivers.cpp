#include "test_drivers.hpp"

#include <stdexcept>

namespace effitest::core {

TestRunResult run_delay_test(const Problem& problem, ChipUnderTest& chip,
                             const std::vector<Batch>& batches,
                             std::span<const double> prior_lower,
                             std::span<const double> prior_upper,
                             std::span<const HoldConstraintX> hold,
                             const TestOptions& options) {
  DelayTestMachine machine(problem, batches, prior_lower, prior_upper, hold,
                           options);
  while (!machine.done()) {
    machine.record_response(chip.apply(machine.next_stimulus()));
  }
  return machine.take_result();
}

TestRunResult run_pathwise_test(const Problem& problem, ChipUnderTest& chip,
                                std::span<const double> prior_lower,
                                std::span<const double> prior_upper,
                                const TestOptions& options) {
  const std::size_t np = problem.model().num_pairs();
  TestRunResult out;
  out.lower.assign(prior_lower.begin(), prior_lower.end());
  out.upper.assign(prior_upper.begin(), prior_upper.end());
  out.tested.assign(np, true);
  out.final_steps = problem.neutral_steps();
  Stimulus stimulus;
  stimulus.steps = out.final_steps;
  for (std::size_t p = 0; p < np; ++p) {
    const double skew = problem.pair_skew(p, out.final_steps);
    stimulus.armed.assign(1, p);
    while (out.upper[p] - out.lower[p] >= options.epsilon_ps) {
      stimulus.period = 0.5 * (out.lower[p] + out.upper[p]) + skew;
      ++out.iterations;
      const std::vector<bool> pass = chip.apply(stimulus);
      if (pass.size() != 1) {
        throw std::invalid_argument(
            "run_pathwise_test: expected a single pass/fail bit");
      }
      if (pass[0]) {
        out.upper[p] = stimulus.period - skew;
      } else {
        out.lower[p] = stimulus.period - skew;
      }
    }
  }
  return out;
}

}  // namespace effitest::core
