#include "core/yield.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "netlist/generator.hpp"
#include "stats/distributions.hpp"

namespace effitest::core {
namespace {

struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  Problem problem;

  Fixture()
      : circuit(netlist::generate_circuit([] {
          netlist::GeneratorSpec s;
          s.num_flip_flops = 70;
          s.num_gates = 800;
          s.num_buffers = 3;
          s.num_critical_paths = 18;
          s.seed = 29;
          return s;
        }())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}

  /// The die sampled on Rng(seed) and its untuned required period (the
  /// lane kernel on the same stream).
  std::pair<timing::Chip, double> die(std::uint64_t seed) const {
    stats::Rng rng(seed);
    std::array<stats::Rng, 1> lane{rng};
    timing::LaneWorkspace ws;
    timing::Chip chip = model.sample_chip(rng);
    return {std::move(chip), model.sample_required_periods(lane, ws)[0]};
  }
};

TEST(BufferValues, MapsStepsToPs) {
  Fixture f;
  std::vector<int> steps(f.problem.num_buffers(), 0);
  const std::vector<double> x = buffer_values(f.problem, steps);
  for (std::size_t b = 0; b < x.size(); ++b) {
    EXPECT_DOUBLE_EQ(x[b], f.problem.buffers()[b].r);
  }
  EXPECT_THROW(buffer_values(f.problem, std::vector<int>{0}),
               std::invalid_argument);
}

TEST(ChipPasses, GenerousPeriodPasses) {
  Fixture f;
  const auto [chip, required] = f.die(1);
  const double td = required + 1.0;
  EXPECT_TRUE(chip_passes_untuned(f.problem, chip, td));
}

TEST(ChipPasses, TightPeriodFails) {
  Fixture f;
  const auto [chip, required] = f.die(2);
  const double td = required - 1.0;
  EXPECT_FALSE(chip_passes_untuned(f.problem, chip, td));
}

TEST(ChipPasses, SkewShiftsPassFail) {
  Fixture f;
  stats::Rng rng(3);
  const timing::Chip chip = f.model.sample_chip(rng);
  // Find the binding pair and a buffer on it.
  std::size_t worst = 0;
  for (std::size_t p = 1; p < f.model.num_pairs(); ++p) {
    if (chip.max_delay[p] > chip.max_delay[worst]) worst = p;
  }
  const double td = chip.max_delay[worst] + 0.001;
  ASSERT_TRUE(chip_passes_untuned(f.problem, chip, td));
  // Worsen the binding pair's skew by one buffer range: must now fail.
  std::vector<double> x(f.problem.num_buffers(), 0.0);
  const int sb = f.problem.src_buffer(worst);
  const int db = f.problem.dst_buffer(worst);
  ASSERT_TRUE(sb >= 0 || db >= 0);
  if (sb >= 0) {
    x[static_cast<std::size_t>(sb)] = 1.0;  // +1ps launch delay
  } else {
    x[static_cast<std::size_t>(db)] = -1.0;
  }
  EXPECT_FALSE(chip_passes(f.problem, chip, x, td));
}

TEST(ChipPasses, HoldViolationDetected) {
  Fixture f;
  const auto [chip, required] = f.die(4);
  const double td = required + 100.0;
  ASSERT_TRUE(chip_passes_untuned(f.problem, chip, td));
  // Find a pair whose destination is buffered and push its capture clock
  // late enough to break hold: x_i - x_j < h - d_min.
  const double h = f.model.hold_time();
  for (std::size_t p = 0; p < f.model.num_pairs(); ++p) {
    const int db = f.problem.dst_buffer(p);
    if (db < 0 || f.problem.src_buffer(p) >= 0) continue;
    const double margin = chip.min_delay[p] - h;  // x_dst may be at most this
    std::vector<double> x(f.problem.num_buffers(), 0.0);
    x[static_cast<std::size_t>(db)] = margin + 1.0;
    EXPECT_FALSE(chip_passes(f.problem, chip, x, td));
    return;
  }
  GTEST_SKIP() << "no dst-only buffered pair";
}

TEST(PeriodQuantile, MedianGivesHalfYield) {
  Fixture f;
  stats::Rng rng(6);
  const double t1 = period_quantile(f.problem, 0.5, 1500, rng);
  // Evaluate untuned yield at T1 on an independent sample.
  stats::Rng eval(7);
  int pass = 0;
  const int chips = 1500;
  for (int c = 0; c < chips; ++c) {
    const timing::Chip chip = f.model.sample_chip(eval);
    if (chip_passes_untuned(f.problem, chip, t1)) ++pass;
  }
  const double yield = static_cast<double>(pass) / chips;
  EXPECT_NEAR(yield, 0.5, 0.05);
}

TEST(PeriodQuantile, MonotoneInQ) {
  Fixture f;
  stats::Rng r1(8);
  stats::Rng r2(8);
  const double t50 = period_quantile(f.problem, 0.5, 800, r1);
  const double t84 = period_quantile(f.problem, 0.8413, 800, r2);
  EXPECT_LT(t50, t84);
}

TEST(PeriodQuantile, ThreadInvariant) {
  // Die c is sampled on its own index_seed stream, so the worker count
  // cannot move T_d.
  Fixture f;
  stats::Rng serial(10);
  stats::Rng pooled(10);
  EXPECT_EQ(period_quantile(f.problem, 0.5, 600, serial, 1),
            period_quantile(f.problem, 0.5, 600, pooled, 4));
  EXPECT_EQ(serial.engine()(), pooled.engine()());
}

TEST(PeriodQuantile, ZeroChipsThrows) {
  Fixture f;
  stats::Rng rng(9);
  EXPECT_THROW((void)period_quantile(f.problem, 0.5, 0, rng),
               std::invalid_argument);
}

TEST(CalibrationSample, IsTheFirstForkOfTheMasterSeed) {
  // The sample TunerService reads T1 from: 2,000 dies on the first fork of
  // Rng(seed), sorted, for any worker count.
  Fixture f;
  stats::Rng master(2016);
  stats::Rng fork = master.fork();
  const std::vector<double> want =
      sample_required_periods(f.problem, 2000, fork, 1);
  EXPECT_EQ(calibration_sample(f.problem, 2016, 1), want);
  EXPECT_EQ(calibration_sample(f.problem, 2016, 4), want);
  EXPECT_TRUE(std::is_sorted(want.begin(), want.end()));
}

}  // namespace
}  // namespace effitest::core
