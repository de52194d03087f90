// calibrated_epsilon: the DESIGN.md rule (6 * median path sigma / 2^8.5)
// and its wiring into run_flow via FlowOptions::epsilon_override.

#include <gtest/gtest.h>

#include <cmath>

#include "core/flow.hpp"
#include "netlist/generator.hpp"
#include "stats/distributions.hpp"
#include "timing/model.hpp"

namespace effitest::core {
namespace {

struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib;
  timing::CircuitModel model;
  Problem problem;

  explicit Fixture(const std::string& name = "s9234")
      : circuit(netlist::generate_circuit(netlist::paper_benchmark_spec(name))),
        lib(netlist::CellLibrary::standard()),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}
};

TEST(CalibratedEpsilon, MatchesMedianSigmaRule) {
  const Fixture f;
  const double eps = calibrated_epsilon(f.problem);

  // The point of the rule: bisecting a 6-sigma prior range of a *median*
  // path down to eps takes ceil(log2(6 sigma / eps)) = ceil(8.5) = 9
  // iterations, the regime of the paper's t'v column (~8-9).
  const double med = stats::quantile(f.model.max_sigmas(), 0.5);
  EXPECT_GT(med, 0.0);
  EXPECT_DOUBLE_EQ(eps, 6.0 * med / std::pow(2.0, 8.5));
}

TEST(CalibratedEpsilon, FlowUsesCalibrationUnlessOverridden) {
  const Fixture f;
  FlowOptions opts;
  opts.chips = 10;

  const FlowResult calibrated = run_flow(f.problem, opts);
  EXPECT_DOUBLE_EQ(calibrated.metrics.epsilon_ps, calibrated_epsilon(f.problem));

  opts.epsilon_override = 0.25;
  const FlowResult overridden = run_flow(f.problem, opts);
  EXPECT_DOUBLE_EQ(overridden.metrics.epsilon_ps, 0.25);
}

}  // namespace
}  // namespace effitest::core
