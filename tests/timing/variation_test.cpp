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
  const VariationModel m(lib());
  // 3 params x (1 + 4 + 16 + 64) at kGridLevels = 3.
  EXPECT_EQ(kGridLevels, 3);
  EXPECT_EQ(m.num_factors(), 3u * 85u);
}

TEST(VariationModel, GateLoadingVarianceMatchesSystematicSigma) {
  // The loading is constructed so that sum of squared weights equals the
  // systematic variance of the gate delay.
  const VariationModel m(lib());
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
  const VariationModel m(lib());
  EXPECT_TRUE(m.gate_loading(netlist::CellType::kInput, {0.5, 0.5}).empty());
}

TEST(VariationModel, SameCellPositionsShareAllFactors) {
  const VariationModel m(lib());
  const SparseLoading a = m.gate_loading(netlist::CellType::kNand, {0.31, 0.31});
  const SparseLoading b = m.gate_loading(netlist::CellType::kNand, {0.32, 0.32});
  // Same finest cell -> identical factor index sets -> correlation 1.
  const double corr = sparse_dot(a, b) /
                      std::sqrt(sparse_dot(a, a) * sparse_dot(b, b));
  EXPECT_NEAR(corr, 1.0, 1e-12);
}

TEST(VariationModel, DistantGatesCorrelateAtGlobalFloor) {
  const VariationModel m(lib());
  const SparseLoading a = m.gate_loading(netlist::CellType::kNand, {0.05, 0.05});
  const SparseLoading b = m.gate_loading(netlist::CellType::kNand, {0.95, 0.95});
  const double corr = sparse_dot(a, b) /
                      std::sqrt(sparse_dot(a, a) * sparse_dot(b, b));
  EXPECT_NEAR(corr, kGlobalCorr, 1e-9);
}

TEST(VariationModel, CorrelationDecreasesWithDistance) {
  const VariationModel m(lib());
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

TEST(VariationModel, MismatchSigmaIsFractionOfSystematicSigma) {
  const VariationModel m(lib());
  for (netlist::CellType t :
       {netlist::CellType::kNand, netlist::CellType::kNot,
        netlist::CellType::kDff}) {
    EXPECT_DOUBLE_EQ(m.mismatch_sigma(t), kMismatchFrac * m.systematic_sigma(t))
        << to_string(t);
  }
}

TEST(VariationModel, SampleFactorsSizeAndRandomness) {
  const VariationModel m(lib());
  stats::Rng rng(3);
  std::vector<double> z1;
  std::vector<double> z2;
  m.sample_factors(rng, z1);
  m.sample_factors(rng, z2);
  EXPECT_EQ(z1.size(), m.num_factors());
  EXPECT_NE(z1, z2);
}

TEST(VariationModel, PositionsClampedAtDieEdge) {
  const VariationModel m(lib());
  EXPECT_NO_THROW(m.gate_loading(netlist::CellType::kNand, {1.0, 1.0}));
  EXPECT_NO_THROW(m.gate_loading(netlist::CellType::kNand, {0.0, 0.0}));
}

}  // namespace
}  // namespace effitest::timing
