#include "core/hold_bounds.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "milp_oracles.hpp"
#include "netlist/generator.hpp"
#include "reference_hold_bounds.hpp"

namespace effitest::core {
namespace {

TEST(GreedyDiscard, FullCoverageIsPerPairMax) {
  const std::vector<std::vector<double>> delta{
      {1.0, -2.0}, {0.5, -1.0}, {2.0, -3.0}};
  const std::vector<double> lambda = greedy_discard_bounds(delta, 1.0);
  ASSERT_EQ(lambda.size(), 2u);
  EXPECT_DOUBLE_EQ(lambda[0], 2.0);
  EXPECT_DOUBLE_EQ(lambda[1], -1.0);
}

TEST(GreedyDiscard, DropsTheWorstSample) {
  // Sample 2 dominates both pairs; discarding one sample (Y = 0.6 of 3
  // samples -> keep 2) must drop it.
  const std::vector<std::vector<double>> delta{
      {1.0, 1.0}, {0.5, 0.5}, {9.0, 9.0}};
  const std::vector<double> lambda = greedy_discard_bounds(delta, 0.6);
  EXPECT_DOUBLE_EQ(lambda[0], 1.0);
  EXPECT_DOUBLE_EQ(lambda[1], 1.0);
}

TEST(GreedyDiscard, EmptyInput) {
  EXPECT_TRUE(greedy_discard_bounds({}, 0.99).empty());
}

TEST(GreedyDiscard, RaggedInputThrows) {
  EXPECT_THROW(greedy_discard_bounds({{1.0, 2.0}, {1.0}}, 0.9),
               std::invalid_argument);
}

TEST(GreedyDiscard, MatchesFullRescanBitForBit) {
  // Random instances against the full-rescan reference, lambda bit for bit.
  // Margins come from three regimes: continuous values; a few exact values,
  // so pairs tie exactly; and values one to eight ulps apart near 1, so
  // ties inside (and just outside) the 1e-15 band of the max reach past
  // the ranked prefix.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    stats::Rng rng(seed);
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 80));
    const auto pairs = static_cast<std::size_t>(rng.uniform_int(0, 9));
    const double yield = rng.uniform(0.5, 1.0);
    const std::int64_t regime = rng.uniform_int(0, 2);
    std::vector<std::vector<double>> delta(m, std::vector<double>(pairs));
    for (auto& row : delta) {
      for (double& v : row) {
        if (regime == 0) {
          v = rng.uniform(-5.0, 5.0);
        } else if (regime == 1) {
          v = static_cast<double>(rng.uniform_int(-2, 2));
        } else {
          v = 1.0 + static_cast<double>(rng.uniform_int(0, 8)) * 0x1p-52;
        }
      }
    }
    const std::vector<double> got = greedy_discard_bounds(delta, yield);
    const std::vector<double> want =
        reference_greedy_discard_bounds(delta, yield);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t p = 0; p < got.size(); ++p) {
      ASSERT_EQ(bits(got[p]), bits(want[p]))
          << "seed " << seed << " regime " << regime << " pair " << p;
    }
  }
}

TEST(ExactMilp, MatchesGreedyOnEasyInstance) {
  const std::vector<std::vector<double>> delta{
      {1.0, 1.0}, {0.5, 0.5}, {9.0, 9.0}};
  const std::vector<double> greedy = greedy_discard_bounds(delta, 0.6);
  const std::vector<double> exact = exact_milp_bounds(delta, 0.6);
  ASSERT_EQ(exact.size(), greedy.size());
  for (std::size_t p = 0; p < exact.size(); ++p) {
    EXPECT_NEAR(exact[p], greedy[p], 1e-6);
  }
}

TEST(ExactMilp, CoversAtLeastYieldFraction) {
  const std::vector<std::vector<double>> delta{
      {3.0}, {1.0}, {2.0}, {5.0}, {4.0}};
  // Y = 0.8 -> cover ceil(4) samples -> drop only the worst (5.0).
  const std::vector<double> lambda = exact_milp_bounds(delta, 0.8);
  EXPECT_NEAR(lambda[0], 4.0, 1e-6);
}

// Property: greedy is a valid upper bound on the exact optimum (it always
// covers >= Y*M samples) and the exact MILP sum is never worse.
class HoldBoundPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HoldBoundPropertyTest, GreedyNeverBeatsExact) {
  stats::Rng rng(GetParam());
  const std::size_t m = 6;
  const std::size_t pairs = 3;
  std::vector<std::vector<double>> delta(m, std::vector<double>(pairs));
  for (auto& row : delta) {
    for (double& v : row) v = rng.uniform(-5.0, 5.0);
  }
  const double yield = 0.7;
  const std::vector<double> greedy = greedy_discard_bounds(delta, yield);
  const std::vector<double> exact = exact_milp_bounds(delta, yield);
  double sum_greedy = 0.0;
  double sum_exact = 0.0;
  for (std::size_t p = 0; p < pairs; ++p) {
    sum_greedy += greedy[p];
    sum_exact += exact[p];
  }
  EXPECT_GE(sum_greedy, sum_exact - 1e-6);

  // Both must cover at least ceil(Y*M) samples completely.
  const auto covered = [&](const std::vector<double>& lambda) {
    std::size_t count = 0;
    for (const auto& row : delta) {
      bool ok = true;
      for (std::size_t p = 0; p < pairs; ++p) {
        if (row[p] > lambda[p] + 1e-9) ok = false;
      }
      if (ok) ++count;
    }
    return count;
  };
  const auto need = static_cast<std::size_t>(
      std::ceil(yield * static_cast<double>(m)));
  EXPECT_GE(covered(greedy), need);
  EXPECT_GE(covered(exact), need);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HoldBoundPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(ComputeHoldBounds, EndToEndOnGeneratedCircuit) {
  netlist::GeneratorSpec s;
  s.num_flip_flops = 70;
  s.num_gates = 800;
  s.num_buffers = 3;
  s.num_critical_paths = 20;
  s.hold_edge_fraction = 0.5;
  s.seed = 19;
  const auto circuit = netlist::generate_circuit(s);
  const auto lib = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs);
  const Problem problem(model);

  stats::Rng rng(20);
  HoldBoundOptions opts;
  opts.samples = 200;
  const std::vector<HoldConstraintX> bounds =
      compute_hold_bounds(problem, rng, opts);
  // Every emitted bound involves at least one buffer and is achievable
  // within the buffer ranges (unachievable ones are pruned).
  for (const HoldConstraintX& h : bounds) {
    EXPECT_TRUE(h.src_buf >= 0 || h.dst_buf >= 0);
    double max_skew = 0.0;
    if (h.src_buf >= 0) {
      const auto& b = problem.buffers()[static_cast<std::size_t>(h.src_buf)];
      max_skew += b.r + b.tau;
    }
    if (h.dst_buf >= 0) {
      max_skew -= problem.buffers()[static_cast<std::size_t>(h.dst_buf)].r;
    }
    EXPECT_LE(h.lambda, max_skew + 1e-9);
  }
}

TEST(ComputeHoldBounds, NeutralConfigurationSatisfiesBounds) {
  // The generator's hold paths have healthy margins; the computed lambdas
  // should allow the all-zero configuration with Y = 0.99.
  netlist::GeneratorSpec s;
  s.num_flip_flops = 70;
  s.num_gates = 800;
  s.num_buffers = 3;
  s.num_critical_paths = 20;
  s.hold_edge_fraction = 0.5;
  s.seed = 23;
  const auto circuit = netlist::generate_circuit(s);
  const auto lib = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs);
  const Problem problem(model);

  stats::Rng rng(24);
  const auto bounds = compute_hold_bounds(problem, rng, {});
  for (const HoldConstraintX& h : bounds) {
    EXPECT_LE(h.lambda, 1e-9)
        << "zero-skew config violates a computed hold bound";
  }
}

}  // namespace
}  // namespace effitest::core
