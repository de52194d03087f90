#include "timing/variation.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace effitest::timing {
namespace {

const netlist::CellLibrary& lib() {
  static const netlist::CellLibrary library = netlist::CellLibrary::standard();
  return library;
}

TEST(SparseLoading, AccumulateMergesSorted) {
  SparseLoading a{{0, 1.0}, {3, 2.0}};
  const SparseLoading b{{1, 5.0}, {3, 1.0}};
  accumulate(a, b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].first, 0);
  EXPECT_EQ(a[1].first, 1);
  EXPECT_EQ(a[2].first, 3);
  EXPECT_DOUBLE_EQ(a[2].second, 3.0);
}

TEST(SparseLoading, DotIntersectsIndices) {
  const SparseLoading a{{0, 2.0}, {2, 3.0}, {5, 1.0}};
  const SparseLoading b{{2, 4.0}, {4, 7.0}, {5, 2.0}};
  EXPECT_DOUBLE_EQ(sparse_dot(a, b), 12.0 + 2.0);
  EXPECT_DOUBLE_EQ(sparse_dot(a, {}), 0.0);
}

TEST(VariationModel, FactorCountMatchesLevels) {
  VariationParams p;
  p.grid_levels = 3;
  const VariationModel m(p, lib());
  // 3 params x (1 + 4 + 16 + 64).
  EXPECT_EQ(m.num_factors(), 3u * 85u);
  VariationParams p0;
  p0.grid_levels = 0;
  EXPECT_EQ(VariationModel(p0, lib()).num_factors(), 3u);
}

TEST(VariationModel, InvalidParamsThrow) {
  VariationParams p;
  p.grid_levels = -1;
  EXPECT_THROW(VariationModel(p, lib()), std::invalid_argument);
  VariationParams p2;
  p2.global_corr = 1.5;
  EXPECT_THROW(VariationModel(p2, lib()), std::invalid_argument);
}

TEST(VariationModel, GateLoadingVarianceMatchesSystematicSigma) {
  // The loading is constructed so that sum of squared weights equals the
  // systematic variance of the gate delay.
  const VariationModel m(VariationParams{}, lib());
  for (netlist::CellType t :
       {netlist::CellType::kNand, netlist::CellType::kNot,
        netlist::CellType::kDff}) {
    const SparseLoading l = m.gate_loading(t, {0.3, 0.7});
    const double var = sparse_dot(l, l);
    const double sys = m.systematic_sigma(t);
    EXPECT_NEAR(std::sqrt(var), sys, 1e-9) << to_string(t);
  }
}

TEST(VariationModel, ZeroDelayCellsHaveNoLoading) {
  const VariationModel m(VariationParams{}, lib());
  EXPECT_TRUE(m.gate_loading(netlist::CellType::kInput, {0.5, 0.5}).empty());
}

TEST(VariationModel, SameCellPositionsShareAllFactors) {
  const VariationModel m(VariationParams{}, lib());
  const SparseLoading a = m.gate_loading(netlist::CellType::kNand, {0.31, 0.31});
  const SparseLoading b = m.gate_loading(netlist::CellType::kNand, {0.32, 0.32});
  // Same finest cell -> identical factor index sets -> correlation 1.
  const double corr = sparse_dot(a, b) /
                      std::sqrt(sparse_dot(a, a) * sparse_dot(b, b));
  EXPECT_NEAR(corr, 1.0, 1e-12);
}

TEST(VariationModel, DistantGatesCorrelateAtGlobalFloor) {
  VariationParams p;
  const VariationModel m(p, lib());
  const SparseLoading a = m.gate_loading(netlist::CellType::kNand, {0.05, 0.05});
  const SparseLoading b = m.gate_loading(netlist::CellType::kNand, {0.95, 0.95});
  const double corr = sparse_dot(a, b) /
                      std::sqrt(sparse_dot(a, a) * sparse_dot(b, b));
  EXPECT_NEAR(corr, p.global_corr, 1e-9);
}

TEST(VariationModel, CorrelationDecreasesWithDistance) {
  const VariationModel m(VariationParams{}, lib());
  const auto corr_at = [&](double dx) {
    const SparseLoading a =
        m.gate_loading(netlist::CellType::kNand, {0.131, 0.131});
    const SparseLoading b =
        m.gate_loading(netlist::CellType::kNand, {0.131 + dx, 0.131});
    return sparse_dot(a, b) / std::sqrt(sparse_dot(a, a) * sparse_dot(b, b));
  };
  const double near = corr_at(0.05);
  const double mid = corr_at(0.3);
  const double far = corr_at(0.8);
  EXPECT_GE(near, mid);
  EXPECT_GE(mid, far);
}

TEST(VariationModel, MismatchSigmaScalesWithFraction) {
  VariationParams p;
  p.mismatch_frac = 0.2;
  const VariationModel m2(p, lib());
  p.mismatch_frac = 0.1;
  const VariationModel m1(p, lib());
  EXPECT_NEAR(m2.mismatch_sigma(netlist::CellType::kNand),
              2.0 * m1.mismatch_sigma(netlist::CellType::kNand), 1e-12);
}

TEST(VariationModel, SampleFactorsSizeAndRandomness) {
  const VariationModel m(VariationParams{}, lib());
  stats::Rng rng(3);
  std::vector<double> z1;
  std::vector<double> z2;
  m.sample_factors(rng, z1);
  m.sample_factors(rng, z2);
  EXPECT_EQ(z1.size(), m.num_factors());
  EXPECT_NE(z1, z2);
}

TEST(VariationModel, PositionsClampedAtDieEdge) {
  const VariationModel m(VariationParams{}, lib());
  EXPECT_NO_THROW(m.gate_loading(netlist::CellType::kNand, {1.0, 1.0}));
  EXPECT_NO_THROW(m.gate_loading(netlist::CellType::kNand, {0.0, 0.0}));
}

}  // namespace
}  // namespace effitest::timing
