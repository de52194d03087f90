#include "core/grouping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "netlist/generator.hpp"
#include "timing/model.hpp"

namespace effitest::core {
namespace {

/// Block covariance: two internal-rho blocks with weak cross correlation.
linalg::Matrix two_block_cov(std::size_t n1, std::size_t n2, double rho_in,
                             double rho_cross) {
  const std::size_t n = n1 + n2;
  linalg::Matrix cov(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool same_block = (i < n1) == (j < n1);
      cov(i, j) = i == j ? 1.0 : (same_block ? rho_in : rho_cross);
    }
  }
  return cov;
}

TEST(SelectPaths, EmptyCovariance) {
  const SelectionResult r = select_paths(linalg::Matrix());
  EXPECT_TRUE(r.groups.empty());
  EXPECT_TRUE(r.tested.empty());
}

TEST(SelectPaths, SingleHighCorrelationBlockNeedsFewTests) {
  linalg::Matrix cov = two_block_cov(10, 0, 0.99, 0.0);
  const SelectionResult r = select_paths(cov);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].members.size(), 10u);
  EXPECT_DOUBLE_EQ(r.groups[0].threshold, 0.95);
  // One dominant PC -> very few representatives.
  EXPECT_LE(r.tested.size(), 2u);
}

TEST(SelectPaths, TwoBlocksSeparate) {
  linalg::Matrix cov = two_block_cov(6, 6, 0.99, 0.1);
  const SelectionResult r = select_paths(cov);
  ASSERT_GE(r.groups.size(), 2u);
  // First group grabs exactly one block.
  EXPECT_EQ(r.groups[0].members.size(), 6u);
  // Every path lands in exactly one group.
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const PathGroup& g : r.groups) {
    for (std::size_t m : g.members) {
      EXPECT_TRUE(seen.insert(m).second) << "duplicate member " << m;
    }
    total += g.members.size();
  }
  EXPECT_EQ(total, 12u);
}

TEST(SelectPaths, ThresholdDecreasesPerRound) {
  linalg::Matrix cov = two_block_cov(4, 4, 0.99, 0.2);
  const SelectionResult r = select_paths(cov);
  for (std::size_t g = 1; g < r.groups.size(); ++g) {
    EXPECT_LT(r.groups[g].threshold, r.groups[g - 1].threshold);
  }
}

TEST(SelectPaths, IndependentPathsAllTestedEventually) {
  // Identity covariance: no correlation to exploit; PCA needs all
  // components, so every path in a group gets selected.
  const SelectionResult r = select_paths(linalg::Matrix::identity(5));
  EXPECT_EQ(r.tested.size(), 5u);
}

TEST(SelectPaths, SelectedAreGroupMembers) {
  linalg::Matrix cov = two_block_cov(5, 7, 0.97, 0.3);
  const SelectionResult r = select_paths(cov);
  for (const PathGroup& g : r.groups) {
    for (std::size_t s : g.selected) {
      EXPECT_TRUE(std::find(g.members.begin(), g.members.end(), s) !=
                  g.members.end());
    }
    EXPECT_EQ(g.selected.size(),
              std::min(g.num_components, g.members.size()));
  }
}

TEST(SelectPaths, TestedIsSortedUnion) {
  linalg::Matrix cov = two_block_cov(5, 7, 0.97, 0.3);
  const SelectionResult r = select_paths(cov);
  EXPECT_TRUE(std::is_sorted(r.tested.begin(), r.tested.end()));
  std::size_t from_groups = 0;
  for (const PathGroup& g : r.groups) from_groups += g.selected.size();
  EXPECT_EQ(r.tested.size(), from_groups);
}

TEST(SelectPaths, PcaCoverageControlsSelectionSize) {
  linalg::Matrix cov = two_block_cov(12, 0, 0.9, 0.0);
  GroupingOptions low;
  low.use_kaiser = false;
  low.pca_coverage = 0.80;
  GroupingOptions high;
  high.use_kaiser = false;
  high.pca_coverage = 0.999;
  EXPECT_LE(select_paths(cov, low).tested.size(),
            select_paths(cov, high).tested.size());
}

TEST(SelectPaths, NonSquareThrows) {
  EXPECT_THROW(select_paths(linalg::Matrix(2, 3)), std::invalid_argument);
}

TEST(SelectPaths, LargeGroupSubsamplingKeepsSelectionSmall) {
  // A 500-member equicorrelated block with the subsample cap engaged must
  // still be recognized as a one/two-component group.
  const std::size_t n = 500;
  linalg::Matrix cov(n, n, 0.97);
  for (std::size_t i = 0; i < n; ++i) cov(i, i) = 1.0;
  GroupingOptions opts;
  opts.pca_max_block = 64;
  // Coverage below the block correlation: one dominant PC regardless of
  // block size (coverage above rho would need O(n) components).
  opts.pca_coverage = 0.90;
  const SelectionResult r = select_paths(cov, opts);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].members.size(), n);
  EXPECT_LE(r.tested.size(), 3u);
  for (std::size_t s : r.tested) EXPECT_LT(s, n);
}

TEST(SelectPaths, SubsampleMatchesFullPcaComponentCount) {
  const std::size_t n = 120;
  linalg::Matrix cov = two_block_cov(60, 60, 0.96, 0.3);
  (void)n;
  GroupingOptions full;
  full.pca_max_block = 1000;
  full.pca_coverage = 0.90;  // below rho_in: size-independent PC count
  GroupingOptions capped;
  capped.pca_max_block = 40;
  capped.pca_coverage = 0.90;
  const SelectionResult a = select_paths(cov, full);
  const SelectionResult b = select_paths(cov, capped);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_NEAR(static_cast<double>(a.groups[g].num_components),
                static_cast<double>(b.groups[g].num_components), 1.0);
  }
}

TEST(CorrelationClusters, PartitionIsComplete) {
  linalg::Matrix cov = two_block_cov(4, 9, 0.98, 0.15);
  const auto clusters = correlation_clusters(cov);
  std::set<std::size_t> seen;
  for (const auto& cl : clusters) {
    for (std::size_t m : cl) EXPECT_TRUE(seen.insert(m).second);
  }
  EXPECT_EQ(seen.size(), 13u);
}

TEST(CorrelationClusters, NegativeThresholdSwallowsRest) {
  // Nineteen uncorrelated paths split off one per round while the threshold
  // (0.95, 0.90, ... by repeated subtraction) stays positive; the twentieth
  // round's threshold is <= 0, so the anti-correlated pair after them is
  // grouped there.
  linalg::Matrix cov(21, 21);
  for (std::size_t i = 0; i < 21; ++i) cov(i, i) = 1.0;
  cov(19, 20) = cov(20, 19) = -0.9;
  const auto clusters = correlation_clusters(cov);
  ASSERT_EQ(clusters.size(), 20u);
  for (std::size_t g = 0; g < 19; ++g) {
    EXPECT_EQ(clusters[g], std::vector<std::size_t>{g});
  }
  EXPECT_EQ(clusters.back(), (std::vector<std::size_t>{19, 20}));
}

/// FNV-1a over a Procedure-1 result: per group its members, |PC_i| and the
/// selected representatives, each list length-prefixed.
std::uint64_t selection_digest(const SelectionResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto add_list = [&add](const std::vector<std::size_t>& xs) {
    add(xs.size());
    for (std::size_t x : xs) add(x);
  };
  add(r.groups.size());
  for (const PathGroup& g : r.groups) {
    add_list(g.members);
    add(g.num_components);
    add_list(g.selected);
  }
  return h;
}

TEST(Grouping, CatalogSelectionDigestsArePinned) {
  // Locks Procedure 1 (grouping, Kaiser count, representative pick) on the
  // covariance of all 10 catalog circuits, nominal and at the Fig.-7
  // inflation: a change to the eigensolver or to select_representatives
  // that moves one selected path fails here. Like the model digests the
  // covariances come from, it holds under any standard library.
  struct Golden {
    const char* name;
    std::uint64_t base;      // random_inflation 1.0
    std::uint64_t inflated;  // random_inflation 1.5
  };
  static constexpr Golden kGoldens[] = {
      {"s9234", 0x2cb30dc21752c22cull, 0xfa9caa2e9f55497eull},
      {"s13207", 0xd7c3d49660cc4b82ull, 0xf6489433d7d8b104ull},
      {"s15850", 0x05f9e156ebefd27bull, 0xecc177747e746446ull},
      {"s38584", 0xbcf4f134b28f5bb9ull, 0x272ea9d757131ffeull},
      {"mem_ctrl", 0xaeb4d4102d13f84bull, 0xb70ccd414be7732eull},
      {"usb_funct", 0x95beaa84550b01e2ull, 0x975108f19b077592ull},
      {"ac97_ctrl", 0x551500648be88379ull, 0x16b56907ef785f6full},
      {"pci_bridge32", 0x8ec0a5d1b2fbf42full, 0x04d264219aeb5dabull},
      {"s35932", 0x9b3cb165475ec809ull, 0x504138ca2d7b6081ull},
      {"s38417", 0x556b16ab5d2837b3ull, 0x2d9144ce7ef5d1e3ull},
  };
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  for (const Golden& g : kGoldens) {
    const auto c =
        netlist::generate_circuit(netlist::paper_benchmark_spec(g.name));
    timing::ModelOptions inflated;
    inflated.random_inflation = 1.5;
    const std::uint64_t base = selection_digest(select_paths(
        timing::CircuitModel(c.netlist, lib, c.buffered_ffs).max_covariance()));
    const std::uint64_t infl = selection_digest(
        select_paths(timing::CircuitModel(c.netlist, lib, c.buffered_ffs,
                                          inflated)
                         .max_covariance()));
    EXPECT_EQ(base, g.base) << g.name;
    EXPECT_EQ(infl, g.inflated) << g.name << " @1.5";
  }
}

}  // namespace
}  // namespace effitest::core
