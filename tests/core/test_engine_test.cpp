#include "core/test_engine.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/tuner_service.hpp"
#include "netlist/generator.hpp"
#include "test_drivers.hpp"

namespace effitest::core {
namespace {

// The engine observes chips only through ChipUnderTest; these helpers wrap
// a sampled die in the SimulatedChip adapter for the historical in-process
// call shape.
TestRunResult run_delay_test(const Problem& problem, const timing::Chip& chip,
                             const std::vector<Batch>& batches,
                             std::span<const double> prior_lower,
                             std::span<const double> prior_upper,
                             std::span<const HoldConstraintX> hold,
                             const TestOptions& options = {}) {
  SimulatedChip tester(problem, chip);
  return core::run_delay_test(problem, tester, batches, prior_lower,
                              prior_upper, hold, options);
}

TestRunResult run_pathwise_test(const Problem& problem,
                                const timing::Chip& chip,
                                std::span<const double> prior_lower,
                                std::span<const double> prior_upper,
                                const TestOptions& options = {}) {
  SimulatedChip tester(problem, chip);
  return core::run_pathwise_test(problem, tester, prior_lower, prior_upper,
                                 options);
}

struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  Problem problem;
  std::vector<double> prior_lower;
  std::vector<double> prior_upper;

  explicit Fixture(std::uint64_t seed = 13)
      : circuit(netlist::generate_circuit([&] {
          netlist::GeneratorSpec s;
          s.num_flip_flops = 70;
          s.num_gates = 800;
          s.num_buffers = 2;
          s.num_critical_paths = 18;
          s.seed = seed;
          return s;
        }())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {
    const auto means = model.max_means();
    const auto sigmas = model.max_sigmas();
    prior_lower.resize(means.size());
    prior_upper.resize(means.size());
    for (std::size_t p = 0; p < means.size(); ++p) {
      prior_lower[p] = means[p] - 3.0 * sigmas[p];
      prior_upper[p] = means[p] + 3.0 * sigmas[p];
    }
  }

  [[nodiscard]] std::vector<Batch> one_batch_per_path() const {
    std::vector<Batch> batches;
    for (std::size_t p = 0; p < model.num_pairs(); ++p) {
      batches.push_back(Batch{{p}});
    }
    return batches;
  }
};

TEST(PathwiseIterations, BisectionCount) {
  EXPECT_EQ(pathwise_iterations(0.0, 8.0, 1.0), 4u);   // 8->4->2->1->0.5
  EXPECT_EQ(pathwise_iterations(0.0, 8.0, 9.0), 0u);   // already resolved
  EXPECT_EQ(pathwise_iterations(0.0, 1.0, 0.01), 7u);  // 2^7 = 128 > 100
  EXPECT_THROW((void)pathwise_iterations(0.0, 1.0, 0.0),
               std::invalid_argument);
}

TEST(DelayTest, BoundsBracketTrueDelay) {
  Fixture f;
  stats::Rng rng(5);
  const timing::Chip chip = f.model.sample_chip(rng);
  TestOptions opts;
  opts.epsilon_ps = 0.25;
  const TestRunResult r =
      run_delay_test(f.problem, chip, f.one_batch_per_path(), f.prior_lower,
                     f.prior_upper, {}, opts);
  for (std::size_t p = 0; p < f.model.num_pairs(); ++p) {
    ASSERT_TRUE(r.tested[p]);
    EXPECT_LT(r.upper[p] - r.lower[p], opts.epsilon_ps + 1e-9);
    // When the prior bracketed the truth, the measurement must still
    // bracket it (allowing the final epsilon window).
    if (chip.max_delay[p] >= f.prior_lower[p] &&
        chip.max_delay[p] <= f.prior_upper[p]) {
      EXPECT_GE(chip.max_delay[p], r.lower[p] - opts.epsilon_ps);
      EXPECT_LE(chip.max_delay[p], r.upper[p] + opts.epsilon_ps);
    }
  }
}

TEST(DelayTest, SingletonBatchesMatchPathwiseCount) {
  // With one path per batch and buffers allowed, alignment puts T exactly at
  // the range center each iteration — identical to path-wise bisection.
  Fixture f;
  stats::Rng rng(6);
  const timing::Chip chip = f.model.sample_chip(rng);
  TestOptions opts;
  opts.epsilon_ps = 0.5;
  const TestRunResult aligned =
      run_delay_test(f.problem, chip, f.one_batch_per_path(), f.prior_lower,
                     f.prior_upper, {}, opts);
  std::size_t expected = 0;
  for (std::size_t p = 0; p < f.model.num_pairs(); ++p) {
    expected += pathwise_iterations(f.prior_lower[p], f.prior_upper[p],
                                    opts.epsilon_ps);
  }
  EXPECT_EQ(aligned.iterations, expected);
}

TEST(DelayTest, MultiplexingReducesIterations) {
  Fixture f;
  stats::Rng rng(7);
  const timing::Chip chip = f.model.sample_chip(rng);
  TestOptions opts;
  opts.epsilon_ps = 0.5;

  const TestRunResult pathwise = run_pathwise_test(
      f.problem, chip, f.prior_lower, f.prior_upper, opts);

  // All paths in as few legal batches as possible.
  std::vector<std::size_t> all(f.model.num_pairs());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto batches = build_batches(f.problem, all);
  const TestRunResult multiplexed = run_delay_test(
      f.problem, chip, batches, f.prior_lower, f.prior_upper, {}, opts);

  EXPECT_LT(multiplexed.iterations, pathwise.iterations);
}

TEST(DelayTest, AlignmentBeatsFrozenBuffers) {
  Fixture f;
  std::vector<std::size_t> all(f.model.num_pairs());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto batches = build_batches(f.problem, all);

  stats::Rng rng(8);
  std::size_t iters_frozen = 0;
  std::size_t iters_aligned = 0;
  for (int c = 0; c < 10; ++c) {
    const timing::Chip chip = f.model.sample_chip(rng);
    TestOptions opts;
    opts.epsilon_ps = 0.5;
    opts.align_with_buffers = false;
    iters_frozen += run_delay_test(f.problem, chip, batches, f.prior_lower,
                                   f.prior_upper, {}, opts)
                        .iterations;
    opts.align_with_buffers = true;
    iters_aligned += run_delay_test(f.problem, chip, batches, f.prior_lower,
                                    f.prior_upper, {}, opts)
                         .iterations;
  }
  EXPECT_LT(iters_aligned, iters_frozen);
}

TEST(DelayTest, UntestedPathsKeepPriors) {
  Fixture f;
  stats::Rng rng(9);
  const timing::Chip chip = f.model.sample_chip(rng);
  const std::vector<Batch> batches{Batch{{0}}};
  const TestRunResult r = run_delay_test(
      f.problem, chip, batches, f.prior_lower, f.prior_upper, {}, {});
  EXPECT_TRUE(r.tested[0]);
  for (std::size_t p = 1; p < f.model.num_pairs(); ++p) {
    EXPECT_FALSE(r.tested[p]);
    EXPECT_DOUBLE_EQ(r.lower[p], f.prior_lower[p]);
    EXPECT_DOUBLE_EQ(r.upper[p], f.prior_upper[p]);
  }
}

TEST(DelayTest, OutOfRangeTruthStillTerminates) {
  Fixture f;
  stats::Rng rng(10);
  timing::Chip chip = f.model.sample_chip(rng);
  // Force the truth far above the prior upper bound (test escape).
  chip.max_delay[0] = f.prior_upper[0] + 50.0;
  const std::vector<Batch> batches{Batch{{0}}};
  TestOptions opts;
  opts.epsilon_ps = 0.5;
  const TestRunResult r = run_delay_test(
      f.problem, chip, batches, f.prior_lower, f.prior_upper, {}, opts);
  EXPECT_TRUE(r.tested[0]);
  EXPECT_LE(r.lower[0], r.upper[0]);
  // The measurement saturates at the prior upper bound.
  EXPECT_NEAR(r.upper[0], f.prior_upper[0], 1.0);
}

TEST(DelayTest, PinchedBoundsResolveEvenWithZeroEpsilon) {
  // A range whose bounds meet carries no width left to bisect, so the pair
  // must resolve at that point even when the width test can never pass
  // (epsilon <= 0). The former behavior kept the pinched pair active for
  // max_iterations_per_batch wasted tester steps and then reported it
  // force-resolved.
  Fixture f;
  stats::Rng rng(14);
  const timing::Chip chip = f.model.sample_chip(rng);
  std::vector<double> lower = f.prior_lower;
  std::vector<double> upper = f.prior_upper;
  upper[0] = lower[0];  // zero-width prior: nothing left to measure
  const std::vector<Batch> batches{Batch{{0}}};
  TestOptions opts;
  opts.epsilon_ps = 0.0;
  const TestRunResult r =
      run_delay_test(f.problem, chip, batches, lower, upper, {}, opts);
  EXPECT_TRUE(r.tested[0]);
  EXPECT_EQ(r.forced, 0u);
  EXPECT_DOUBLE_EQ(r.lower[0], r.upper[0]);
  // Resolution must come from the pinch, not from the safety stop.
  EXPECT_EQ(r.iterations, 1u);
}

TEST(DelayTest, EscapeClampPinchResolvesInsteadOfForcing) {
  // Two paths share a batch; path 1's range sits far above path 0's and its
  // true delay is a deep escape below everything. Whenever the shared
  // period lands in (or below) path 0's territory, path 1 passes and its
  // upper bound clamps under its lower bound — the escape pinch. With a
  // non-positive epsilon the width test can never resolve it, so only the
  // pinch rule keeps it from burning max_iterations_per_batch tester
  // steps. Path 0, bisecting a real range under epsilon = 0, is the one
  // the safety stop must catch — and the only one.
  Fixture f;
  stats::Rng rng(15);
  timing::Chip chip = f.model.sample_chip(rng);
  std::vector<double> lower = f.prior_lower;
  std::vector<double> upper = f.prior_upper;
  lower[0] = 100.0;
  upper[0] = 200.0;
  lower[1] = 300.0;
  upper[1] = 300.0;          // zero width: any outcome pinches it
  chip.max_delay[0] = 150.0;
  chip.max_delay[1] = 10.0;  // deep escape below its prior range
  const std::vector<Batch> batches{Batch{{0, 1}}};
  TestOptions opts;
  opts.epsilon_ps = 0.0;
  opts.align_with_buffers = false;
  const TestRunResult r =
      run_delay_test(f.problem, chip, batches, lower, upper, {}, opts);
  // The batch runs until the safety stop.
  EXPECT_EQ(r.iterations, kMaxIterationsPerBatch);
  EXPECT_TRUE(r.tested[1]);
  EXPECT_DOUBLE_EQ(r.lower[1], r.upper[1]);
  EXPECT_LE(r.upper[1], 300.0);
  // Only path 0 (unresolvable at epsilon = 0) hits the safety stop.
  EXPECT_TRUE(r.tested[0]);
  EXPECT_EQ(r.forced, 1u);
}

TEST(DelayTest, BadPriorSizesThrow) {
  Fixture f;
  stats::Rng rng(11);
  const timing::Chip chip = f.model.sample_chip(rng);
  const std::vector<double> short_prior{1.0};
  EXPECT_THROW(run_delay_test(f.problem, chip, {}, short_prior, short_prior,
                              {}, {}),
               std::invalid_argument);
}

TEST(DelayTest, IterationAccountingPerBatch) {
  // k singleton batches of the same path count must sum their iterations.
  Fixture f;
  stats::Rng rng(12);
  const timing::Chip chip = f.model.sample_chip(rng);
  TestOptions opts;
  opts.epsilon_ps = 1.0;
  const std::vector<Batch> one{Batch{{0}}};
  const std::vector<Batch> two{Batch{{0}}, Batch{{1}}};
  const auto r1 = run_delay_test(f.problem, chip, one, f.prior_lower,
                                 f.prior_upper, {}, opts);
  const auto r2 = run_delay_test(f.problem, chip, two, f.prior_lower,
                                 f.prior_upper, {}, opts);
  EXPECT_GT(r2.iterations, r1.iterations);
}

TEST(PathwiseTest, ResolvesEverything) {
  Fixture f;
  stats::Rng rng(13);
  const timing::Chip chip = f.model.sample_chip(rng);
  TestOptions opts;
  opts.epsilon_ps = 0.5;
  const TestRunResult r = run_pathwise_test(f.problem, chip, f.prior_lower,
                                            f.prior_upper, opts);
  for (std::size_t p = 0; p < f.model.num_pairs(); ++p) {
    EXPECT_TRUE(r.tested[p]);
    EXPECT_LT(r.upper[p] - r.lower[p], opts.epsilon_ps + 1e-9);
  }
  // Deterministic iteration count: sum of per-path bisections.
  std::size_t expected = 0;
  for (std::size_t p = 0; p < f.model.num_pairs(); ++p) {
    expected += pathwise_iterations(f.prior_lower[p], f.prior_upper[p],
                                    opts.epsilon_ps);
  }
  EXPECT_EQ(r.iterations, expected);
}

}  // namespace
}  // namespace effitest::core
