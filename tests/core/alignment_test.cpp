#include "core/alignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "milp_oracles.hpp"
#include "netlist/generator.hpp"
#include "stats/rng.hpp"

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
          s.num_flip_flops = 80;
          s.num_gates = 900;
          s.num_buffers = 3;
          s.num_critical_paths = 24;
          s.seed = seed;
          return s;
        }())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}
};

double objective_at(const AlignmentInstance& inst, const AlignmentResult& r) {
  double acc = 0.0;
  for (const AlignmentEntry& e : inst.entries) {
    double shifted = e.center;
    if (e.src_buf >= 0) {
      shifted += inst.problem->buffers()[static_cast<std::size_t>(e.src_buf)]
                     .value(r.steps[static_cast<std::size_t>(e.src_buf)]);
    }
    if (e.dst_buf >= 0) {
      shifted -= inst.problem->buffers()[static_cast<std::size_t>(e.dst_buf)]
                     .value(r.steps[static_cast<std::size_t>(e.dst_buf)]);
    }
    acc += e.weight * std::abs(r.period - shifted);
  }
  return acc;
}

/// middle_out_weights into fresh vectors.
std::vector<double> weights_of(std::span<const double> centers, double k0,
                               double kd) {
  std::vector<std::size_t> order;
  std::vector<double> weights;
  middle_out_weights(centers, k0, kd, order, weights);
  return weights;
}

TEST(MiddleOutWeights, MiddleGetsK0) {
  const std::vector<double> centers{10.0, 30.0, 20.0};
  const std::vector<double> w = weights_of(centers, 100.0, 1.0);
  ASSERT_EQ(w.size(), 3u);
  // Sorted: 10, 20, 30 -> middle is 20 (index 2 of input).
  EXPECT_DOUBLE_EQ(w[2], 100.0);
  EXPECT_LT(w[0], 100.0);
  EXPECT_LT(w[1], 100.0);
  EXPECT_DOUBLE_EQ(w[0], w[1]);  // symmetric distance from the middle
}

TEST(MiddleOutWeights, FlooredAtKd) {
  std::vector<double> centers(10);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers[i] = static_cast<double>(i);
  }
  const std::vector<double> w = weights_of(centers, 3.0, 1.0);
  for (double v : w) EXPECT_GE(v, 1.0);
}

TEST(MiddleOutWeights, TiedCentersRankInInputOrder) {
  // More than 16 equal centers: past the size where standard sorts switch
  // from insertion sort, so an unstable ranking would show here.
  const std::size_t n = 33;
  const std::vector<double> centers(n, 200.0);
  const std::vector<double> w = weights_of(centers, 100.0, 1.0);
  ASSERT_EQ(w.size(), n);
  const double mid = (static_cast<double>(n) - 1.0) / 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dist = std::abs(static_cast<double>(i) - mid);
    EXPECT_EQ(w[i], std::max(100.0 - dist, 1.0)) << "index " << i;
  }
}

TEST(MiddleOutWeights, TiesBreakByIndexAmongDistinctCenters) {
  // Two blocks of 12 ties around one distinct center: each tie takes the
  // rank its input position gives it within its block.
  std::vector<double> centers;
  for (int i = 0; i < 12; ++i) centers.push_back(i % 2 == 0 ? 5.0 : 9.0);
  centers.push_back(7.0);
  for (int i = 0; i < 12; ++i) centers.push_back(i % 2 == 0 ? 9.0 : 5.0);
  const std::vector<double> w = weights_of(centers, 100.0, 1.0);
  std::vector<std::size_t> fives;
  std::vector<std::size_t> nines;
  for (std::size_t i = 0; i < centers.size(); ++i) {
    if (centers[i] == 5.0) fives.push_back(i);
    if (centers[i] == 9.0) nines.push_back(i);
  }
  const double mid = (static_cast<double>(centers.size()) - 1.0) / 2.0;
  EXPECT_EQ(w[12], 100.0);  // rank 12 of 25: the median
  for (std::size_t r = 0; r < fives.size(); ++r) {
    EXPECT_EQ(w[fives[r]], 100.0 - std::abs(static_cast<double>(r) - mid));
  }
  for (std::size_t r = 0; r < nines.size(); ++r) {
    EXPECT_EQ(w[nines[r]],
              100.0 - std::abs(static_cast<double>(r + 13) - mid));
  }
}

TEST(MiddleOutWeights, EmptyAndSingle) {
  EXPECT_TRUE(weights_of({}, 10.0, 1.0).empty());
  const std::vector<double> one{5.0};
  EXPECT_DOUBLE_EQ(weights_of(one, 10.0, 1.0)[0], 10.0);
}

TEST(Alignment, SingleEntryPeriodHitsShiftedCenter) {
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  inst.entries.push_back(AlignmentEntry{150.0, 1.0, 0, -1});
  const AlignmentResult cd = solve_alignment(inst);
  EXPECT_NEAR(cd.objective, 0.0, 1e-6) << "coordinate descent";
  EXPECT_NEAR(objective_at(inst, cd), cd.objective, 1e-9);
  for (MilpForm form : {MilpForm::kCompact, MilpForm::kBigM}) {
    const AlignmentResult r = solve_alignment_milp(inst, form);
    EXPECT_NEAR(r.objective, 0.0, 1e-6) << "form " << static_cast<int>(form);
    EXPECT_NEAR(objective_at(inst, r), r.objective, 1e-9);
  }
}

TEST(Alignment, TwoOpposedEntriesMeetInMiddle) {
  // Paths c=100 (+x0) and c=110 (-x0): x0 = 5 aligns both at 105 when the
  // range allows; otherwise the solver saturates x0.
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  inst.entries.push_back(AlignmentEntry{100.0, 1.0, 0, -1});
  inst.entries.push_back(AlignmentEntry{110.0, 1.0, -1, 0});
  const double half_range = f.problem.buffers()[0].tau / 2.0;
  const AlignmentResult cd = solve_alignment(inst);
  const AlignmentResult milp = solve_alignment_milp(inst);
  if (half_range >= 5.0) {
    // Residual bounded by one step of quantization across two entries.
    EXPECT_NEAR(milp.objective, 0.0,
                1.5 * f.problem.buffers()[0].step_size());
  }
  // CD must match the exact optimum on this trivial instance.
  EXPECT_NEAR(cd.objective, milp.objective,
              1.5 * f.problem.buffers()[0].step_size());
}

TEST(Alignment, EmptyInstanceNoop) {
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  const AlignmentResult r = solve_alignment(inst);
  EXPECT_EQ(r.steps, inst.current_steps);
}

TEST(Alignment, MissingProblemThrows) {
  AlignmentInstance inst;
  EXPECT_THROW((void)solve_alignment(inst), std::invalid_argument);
  EXPECT_THROW((void)solve_alignment_milp(inst), std::invalid_argument);
}

TEST(Alignment, BadStepsSizeThrows) {
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = {0};  // wrong size
  inst.entries.push_back(AlignmentEntry{100.0, 1.0, 0, -1});
  EXPECT_THROW((void)solve_alignment(inst), std::invalid_argument);
  EXPECT_THROW((void)solve_alignment_milp(inst), std::invalid_argument);
}

TEST(Alignment, FrozenBuffersRespected) {
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  inst.allow_buffer_moves = false;
  inst.entries.push_back(AlignmentEntry{100.0, 1.0, 0, -1});
  inst.entries.push_back(AlignmentEntry{140.0, 1.0, 1, -1});
  const AlignmentResult r = solve_alignment(inst);
  EXPECT_EQ(r.steps, inst.current_steps);  // nothing moved
  EXPECT_GT(r.objective, 0.0);             // centers cannot be merged
}

TEST(Alignment, HoldConstraintsBlockSkew) {
  const Fixture f;
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  // Entry wants x0 very negative; hold bound x0 >= 0 forbids it.
  inst.entries.push_back(AlignmentEntry{100.0, 1.0, 0, -1});
  inst.entries.push_back(AlignmentEntry{120.0, 1.0, -1, -1});
  inst.hold.push_back(HoldConstraintX{0, -1, 0.0});  // x0 >= 0
  for (const AlignmentResult& r :
       {solve_alignment(inst), solve_alignment_milp(inst)}) {
    const double x0 = f.problem.buffers()[0].value(r.steps[0]);
    EXPECT_GE(x0, -1e-9);
  }
}

TEST(Alignment, BigMAndCompactMilpAgree) {
  const Fixture f;
  stats::Rng rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    AlignmentInstance inst;
    inst.problem = &f.problem;
    inst.current_steps = f.problem.neutral_steps();
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    std::vector<double> centers;
    for (std::size_t i = 0; i < n; ++i) {
      centers.push_back(rng.uniform(140.0, 180.0));
    }
    const std::vector<double> w = weights_of(centers, 1000.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const int src = static_cast<int>(rng.uniform_int(-1, 2));
      int dst = static_cast<int>(rng.uniform_int(-1, 2));
      if (dst == src && src >= 0) dst = -1;
      inst.entries.push_back(AlignmentEntry{centers[i], w[i], src, dst});
    }
    const AlignmentResult compact =
        solve_alignment_milp(inst, MilpForm::kCompact);
    const AlignmentResult bigm = solve_alignment_milp(inst, MilpForm::kBigM);
    EXPECT_NEAR(compact.objective, bigm.objective,
                1e-4 * (1.0 + compact.objective))
        << "trial " << trial;
  }
}

// Ablation-style property: coordinate descent objective is close to the
// exact MILP optimum (small gap) and never better.
class CdQualityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdQualityTest, NearOptimalOnRandomInstances) {
  const Fixture f(GetParam() % 3 + 11);
  stats::Rng rng(GetParam());
  AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  std::vector<double> centers;
  for (std::size_t i = 0; i < n; ++i) {
    centers.push_back(rng.uniform(140.0, 190.0));
  }
  const std::vector<double> w = weights_of(centers, 1000.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const int src = static_cast<int>(rng.uniform_int(-1, 2));
    int dst = static_cast<int>(rng.uniform_int(-1, 2));
    if (dst == src && src >= 0) dst = -1;
    inst.entries.push_back(AlignmentEntry{centers[i], w[i], src, dst});
  }
  const AlignmentResult cd = solve_alignment(inst);
  const AlignmentResult exact = solve_alignment_milp(inst);
  // CD cannot beat the exact solver...
  EXPECT_GE(cd.objective, exact.objective - 1e-6);
  // ...and should be within 25% + epsilon of it on these instance sizes.
  EXPECT_LE(cd.objective, exact.objective * 1.25 + 2.0);
  // Both respect the consistency between reported and recomputed objective.
  EXPECT_NEAR(objective_at(inst, cd), cd.objective, 1e-9);
  EXPECT_NEAR(objective_at(inst, exact), exact.objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdQualityTest,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace effitest::core
