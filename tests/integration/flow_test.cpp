#include "core/flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/generator.hpp"

namespace effitest::core {
namespace {

struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  Problem problem;

  explicit Fixture(std::uint64_t seed = 42)
      : circuit(netlist::generate_circuit([&] {
          netlist::GeneratorSpec s;
          s.num_flip_flops = 60;
          s.num_gates = 800;
          s.num_buffers = 2;
          s.num_critical_paths = 24;
          s.seed = seed;
          return s;
        }())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}
};

TEST(PrepareFlow, ArtifactsConsistent) {
  Fixture f;
  stats::Rng rng(1);
  FlowOptions opts;
  const FlowArtifacts art = prepare_flow(f.problem, opts, rng);

  // Priors are mu +/- 3 sigma.
  const auto means = f.model.max_means();
  const auto sigmas = f.model.max_sigmas();
  for (std::size_t p = 0; p < f.model.num_pairs(); ++p) {
    EXPECT_NEAR(art.prior_lower[p], means[p] - 3.0 * sigmas[p], 1e-9);
    EXPECT_NEAR(art.prior_upper[p], means[p] + 3.0 * sigmas[p], 1e-9);
  }

  // Tested = sorted union of batch contents.
  std::vector<std::size_t> from_batches;
  for (const Batch& b : art.batches) {
    from_batches.insert(from_batches.end(), b.paths.begin(), b.paths.end());
  }
  std::sort(from_batches.begin(), from_batches.end());
  EXPECT_EQ(art.tested, from_batches);
  EXPECT_TRUE(std::is_sorted(art.tested.begin(), art.tested.end()));

  // A predictor exists iff some paths are untested.
  EXPECT_EQ(art.predictor.has_value(),
            art.tested.size() < f.model.num_pairs());
}

TEST(PrepareFlow, NoPredictionTestsEverything) {
  Fixture f;
  stats::Rng rng(2);
  FlowOptions opts;
  opts.use_prediction = false;
  const FlowArtifacts art = prepare_flow(f.problem, opts, rng);
  EXPECT_EQ(art.tested.size(), f.model.num_pairs());
  EXPECT_FALSE(art.predictor.has_value());
}

TEST(PrepareFlow, SlotFillingExpandsTestedSet) {
  Fixture f;
  stats::Rng r1(3);
  stats::Rng r2(3);
  FlowOptions with_fill;
  with_fill.fill_slots = true;
  FlowOptions without_fill;
  without_fill.fill_slots = false;
  const FlowArtifacts a = prepare_flow(f.problem, with_fill, r1);
  const FlowArtifacts b = prepare_flow(f.problem, without_fill, r2);
  EXPECT_GE(a.tested.size(), b.tested.size());
  EXPECT_EQ(b.tested.size(), b.selection.tested.size());
}

TEST(CalibratedEpsilon, TracksSigmaScale) {
  Fixture f;
  const double eps = calibrated_epsilon(f.problem);
  EXPECT_GT(eps, 0.0);
  // 6 sigma_med / 2^8.5: implies ~8-9 path-wise iterations.
  const auto sigmas = f.model.max_sigmas();
  std::vector<double> sorted = sigmas;
  std::sort(sorted.begin(), sorted.end());
  const double med = sorted[sorted.size() / 2];
  const std::size_t iters = pathwise_iterations(-3.0 * med, 3.0 * med, eps);
  EXPECT_GE(iters, 8u);
  EXPECT_LE(iters, 10u);
}

TEST(RunFlow, MetricsInternallyConsistent) {
  Fixture f;
  FlowOptions opts;
  opts.chips = 40;
  opts.seed = 5;
  const FlowResult r = run_flow(f.problem, opts);
  const FlowMetrics& m = r.metrics;

  EXPECT_EQ(m.np, f.model.num_pairs());
  EXPECT_EQ(m.npt, r.artifacts->tested.size());
  EXPECT_GT(m.npt, 0u);
  EXPECT_LE(m.npt, m.np);
  EXPECT_GT(m.num_batches, 0u);
  EXPECT_GT(m.designated_period, 0.0);
  EXPECT_GT(m.epsilon_ps, 0.0);

  EXPECT_NEAR(m.tv, m.ta / static_cast<double>(m.npt), 1e-9);
  EXPECT_NEAR(m.tv_pathwise, m.ta_pathwise / static_cast<double>(m.np), 1e-9);
  EXPECT_NEAR(m.ra, (m.ta_pathwise - m.ta) / m.ta_pathwise * 100.0, 1e-9);
  EXPECT_NEAR(m.yield_drop, m.yield_ideal - m.yield_proposed, 1e-12);

  // Yields are probabilities.
  for (double y : {m.yield_no_buffer, m.yield_ideal, m.yield_proposed}) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
  }
}

TEST(RunFlow, DeterministicInSeed) {
  Fixture f;
  FlowOptions opts;
  opts.chips = 20;
  opts.seed = 6;
  const FlowResult a = run_flow(f.problem, opts);
  const FlowResult b = run_flow(f.problem, opts);
  EXPECT_DOUBLE_EQ(a.metrics.ta, b.metrics.ta);
  EXPECT_DOUBLE_EQ(a.metrics.yield_proposed, b.metrics.yield_proposed);
  EXPECT_DOUBLE_EQ(a.metrics.designated_period, b.metrics.designated_period);
}

TEST(RunFlow, ExplicitPeriodHonored) {
  Fixture f;
  FlowOptions opts;
  opts.chips = 10;
  opts.designated_period = 500.0;  // very generous
  const FlowResult r = run_flow(f.problem, opts);
  EXPECT_DOUBLE_EQ(r.metrics.designated_period, 500.0);
  // Everything passes at an absurdly long period.
  EXPECT_DOUBLE_EQ(r.metrics.yield_no_buffer, 1.0);
  EXPECT_DOUBLE_EQ(r.metrics.yield_ideal, 1.0);
  EXPECT_DOUBLE_EQ(r.metrics.yield_proposed, 1.0);
}

TEST(RunFlow, EpsilonOverrideChangesIterationCounts) {
  Fixture f;
  FlowOptions coarse;
  coarse.chips = 10;
  coarse.epsilon_override = 4.0;
  FlowOptions fine;
  fine.chips = 10;
  fine.epsilon_override = 0.25;
  const FlowResult a = run_flow(f.problem, coarse);
  const FlowResult b = run_flow(f.problem, fine);
  EXPECT_LT(a.metrics.ta, b.metrics.ta);
  EXPECT_LT(a.metrics.ta_pathwise, b.metrics.ta_pathwise);
}

TEST(RunFlow, ArtifactReuseReproducesResults) {
  Fixture f;
  FlowOptions opts;
  opts.chips = 25;
  opts.seed = 12;
  const FlowResult fresh = run_flow(f.problem, opts);
  const FlowResult reused = run_flow(f.problem, opts, fresh.artifacts);
  EXPECT_DOUBLE_EQ(reused.metrics.ta, fresh.metrics.ta);
  EXPECT_DOUBLE_EQ(reused.metrics.yield_proposed,
                   fresh.metrics.yield_proposed);
  EXPECT_EQ(reused.metrics.npt, fresh.metrics.npt);
  // Reuse skips the offline preparation almost entirely.
  EXPECT_LE(reused.metrics.tp_seconds, fresh.metrics.tp_seconds + 1e-9);
}

TEST(RunFlow, ThreadCountDoesNotChangeResults) {
  Fixture f;
  FlowOptions serial;
  serial.chips = 30;
  serial.seed = 13;
  serial.threads = 1;
  FlowOptions parallel = serial;
  parallel.threads = 4;
  const FlowResult a = run_flow(f.problem, serial);
  const FlowResult b = run_flow(f.problem, parallel);
  EXPECT_DOUBLE_EQ(a.metrics.ta, b.metrics.ta);
  EXPECT_DOUBLE_EQ(a.metrics.yield_proposed, b.metrics.yield_proposed);
  EXPECT_DOUBLE_EQ(a.metrics.yield_ideal, b.metrics.yield_ideal);
  EXPECT_DOUBLE_EQ(a.metrics.yield_no_buffer, b.metrics.yield_no_buffer);
}

TEST(RunFlow, PredictionCutsTestedPathsAndIterations) {
  Fixture f;
  FlowOptions with_pred;
  with_pred.chips = 15;
  FlowOptions without_pred;
  without_pred.chips = 15;
  without_pred.use_prediction = false;
  const FlowResult a = run_flow(f.problem, with_pred);
  const FlowResult b = run_flow(f.problem, without_pred);
  EXPECT_LT(a.metrics.npt, b.metrics.npt);
  EXPECT_LT(a.metrics.ta, b.metrics.ta);
}

}  // namespace
}  // namespace effitest::core
