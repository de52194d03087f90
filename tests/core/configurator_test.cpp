#include "core/configurator.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/yield.hpp"
#include "milp_oracles.hpp"
#include "netlist/generator.hpp"
#include "stats/distributions.hpp"

namespace effitest::core {
namespace {

struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  Problem problem;

  explicit Fixture(std::uint64_t seed = 13)
      : circuit(netlist::generate_circuit([&] {
          netlist::GeneratorSpec s;
          s.num_flip_flops = 70;
          s.num_gates = 800;
          s.num_buffers = 3;
          s.num_critical_paths = 18;
          s.seed = seed;
          return s;
        }())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}
};

/// Check eq. 16 for every pair against given bounds: there must exist
/// D' in [l, u] with D' + skew <= td, i.e. skew <= td - l.
void expect_setup_feasible(const Problem& problem, std::span<const int> steps,
                           std::span<const double> lower, double td) {
  for (std::size_t p = 0; p < problem.model().num_pairs(); ++p) {
    EXPECT_LE(problem.pair_skew(p, steps), td - lower[p] + 1e-6)
        << "pair " << p;
  }
}

TEST(Configurator, GenerousPeriodAlwaysFeasible) {
  Fixture f;
  const auto means = f.model.max_means();
  std::vector<double> lower(means);
  std::vector<double> upper(means);
  const double td = *std::max_element(means.begin(), means.end()) + 100.0;
  const ConfigResult r = configure_buffers(f.problem, td, lower, upper, {});
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.xi, 0.0, 0.1);
  ASSERT_EQ(r.steps.size(), f.problem.num_buffers());
  expect_setup_feasible(f.problem, r.steps, lower, td);
}

TEST(Configurator, ImpossiblePeriodInfeasible) {
  Fixture f;
  const auto means = f.model.max_means();
  const double td =
      *std::min_element(means.begin(), means.end()) / 2.0;  // hopeless
  const ConfigResult r =
      configure_buffers(f.problem, td, means, means, {});
  EXPECT_FALSE(r.feasible);
}

TEST(Configurator, XiMeasuresUpperBoundOvershoot) {
  Fixture f;
  const auto means = f.model.max_means();
  std::vector<double> lower(means.size());
  std::vector<double> upper(means.size());
  for (std::size_t p = 0; p < means.size(); ++p) {
    lower[p] = means[p] - 10.0;
    upper[p] = means[p] + 10.0;
  }
  // td between lower and upper: feasible with xi > 0 (assumed delays pushed
  // below their upper bounds).
  const double td = *std::max_element(means.begin(), means.end());
  const ConfigResult r = configure_buffers(f.problem, td, lower, upper, {});
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.xi, 0.0);
  // xi is bounded by the range width plus quantization.
  EXPECT_LE(r.xi, 20.0 + f.problem.buffers()[0].step_size() + 0.1);
}

TEST(Configurator, StepsWithinRange) {
  Fixture f;
  const auto means = f.model.max_means();
  const double td = *std::max_element(means.begin(), means.end()) + 5.0;
  const ConfigResult r = configure_buffers(f.problem, td, means, means, {});
  ASSERT_TRUE(r.feasible);
  for (std::size_t b = 0; b < r.steps.size(); ++b) {
    EXPECT_GE(r.steps[b], 0);
    EXPECT_LT(r.steps[b], f.problem.buffers()[b].steps);
  }
}

TEST(Configurator, HoldBoundsRespected) {
  Fixture f;
  const auto means = f.model.max_means();
  const double td = *std::max_element(means.begin(), means.end()) + 50.0;
  // Force x0 - x1 >= half range: a binding hold constraint.
  const double bound = f.problem.buffers()[0].tau / 4.0;
  const std::vector<HoldConstraintX> hold{{0, 1, bound}};
  const ConfigResult r = configure_buffers(f.problem, td, means, means, hold);
  ASSERT_TRUE(r.feasible);
  const double x0 = f.problem.buffers()[0].value(r.steps[0]);
  const double x1 = f.problem.buffers()[1].value(r.steps[1]);
  EXPECT_GE(x0 - x1, bound - 1e-9);
}

TEST(Configurator, ContradictoryHoldBoundsInfeasible) {
  Fixture f;
  const auto means = f.model.max_means();
  const double td = *std::max_element(means.begin(), means.end()) + 50.0;
  const double too_much = f.problem.buffers()[0].tau * 3.0;
  const std::vector<HoldConstraintX> hold{{0, 1, too_much}};
  const ConfigResult r = configure_buffers(f.problem, td, means, means, hold);
  EXPECT_FALSE(r.feasible);
}

TEST(Configurator, MilpAgreesWithDifferenceConstraints) {
  Fixture f;
  const auto means = f.model.max_means();
  const auto sigmas = f.model.max_sigmas();
  std::vector<double> lower(means.size());
  std::vector<double> upper(means.size());
  for (std::size_t p = 0; p < means.size(); ++p) {
    lower[p] = means[p] - sigmas[p];
    upper[p] = means[p] + sigmas[p];
  }
  for (double td_offset : {-5.0, 0.0, 15.0}) {
    const double td =
        *std::max_element(means.begin(), means.end()) + td_offset;
    const ConfigResult a = configure_buffers(f.problem, td, lower, upper, {});
    const ConfigResult b =
        configure_buffers_milp(f.problem, td, lower, upper, {});
    EXPECT_EQ(a.feasible, b.feasible) << "td offset " << td_offset;
    if (a.feasible && b.feasible) {
      // Same optimum: the difference-constraint xi is exact on the grid.
      EXPECT_NEAR(a.xi, b.xi, 1e-6) << "td offset " << td_offset;
    }
  }
}

TEST(Configurator, BoundsSizeValidated) {
  Fixture f;
  const std::vector<double> wrong{1.0};
  EXPECT_THROW(configure_buffers(f.problem, 100.0, wrong, wrong, {}),
               std::invalid_argument);
  // Hold buffer indices must lie in [-1, nb).
  const auto means = f.model.max_means();
  const int nb = static_cast<int>(f.problem.num_buffers());
  for (const HoldConstraintX bad : {HoldConstraintX{nb, 0, 1.0},
                                    HoldConstraintX{0, -2, 1.0}}) {
    const std::vector<HoldConstraintX> hold{bad};
    EXPECT_THROW(configure_buffers(f.problem, 100.0, means, means, hold),
                 std::invalid_argument);
  }
}

TEST(ConfigureIdeal, FeasibleImpliesChipPasses) {
  Fixture f;
  stats::Rng rng(31);
  const auto means = f.model.max_means();
  const double td = *std::max_element(means.begin(), means.end()) + 3.0;
  int feasible = 0;
  for (int c = 0; c < 30; ++c) {
    const timing::Chip chip = f.model.sample_chip(rng);
    const ConfigResult r = configure_ideal(f.problem, td, chip);
    if (!r.feasible) continue;
    ++feasible;
    EXPECT_TRUE(chip_passes(f.problem, chip,
                            buffer_values(f.problem, r.steps), td))
        << "ideal configuration produced a failing chip";
  }
  EXPECT_GT(feasible, 0);
}

TEST(ConfigureIdeal, RescuesTunableChips) {
  // Chips failing untuned but with per-hub balance should be rescued.
  Fixture f;
  stats::Rng rng(37);
  const auto means = f.model.max_means();
  const double td =
      stats::sorted_quantile(calibration_sample(f.problem, 37), 0.5);
  int untuned_pass = 0;
  int ideal_pass = 0;
  const int chips = 120;
  for (int c = 0; c < chips; ++c) {
    const timing::Chip chip = f.model.sample_chip(rng);
    if (chip_passes_untuned(f.problem, chip, td)) ++untuned_pass;
    const ConfigResult r = configure_ideal(f.problem, td, chip);
    if (r.feasible &&
        chip_passes(f.problem, chip, buffer_values(f.problem, r.steps), td)) {
      ++ideal_pass;
    }
  }
  EXPECT_GT(ideal_pass, untuned_pass);
}

}  // namespace
}  // namespace effitest::core
