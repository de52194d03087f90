#include "core/difference_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace effitest::core {
namespace {

TEST(DifferenceSystem, PotentialsAreShortestDistancesInAnyEdgeOrder) {
  // x1 - x0 <= 4, x2 - x1 <= -3, x0 - x2 <= 1, x2 - x0 <= 5.
  DifferenceSystem a(3);
  a.edges = {{0, 1, 4.0}, {1, 2, -3.0}, {2, 0, 1.0}, {0, 2, 5.0}};
  DifferenceSystem b(3);
  b.edges = a.edges;
  std::reverse(b.edges.begin(), b.edges.end());
  ASSERT_TRUE(a.solve());
  ASSERT_TRUE(b.solve());
  EXPECT_EQ(a.potentials(), b.potentials());
  // From the implicit zero source: d1 = 0, d2 = d1 - 3, d0 = d2 + 1.
  EXPECT_EQ(a.potentials(), (std::vector<double>{-2.0, 0.0, -3.0}));
  EXPECT_TRUE(a.witness().empty());
}

TEST(DifferenceSystem, NegativeCycleWitnessIsAClosedNegativeWalk) {
  // 0 -> 1 -> 2 -> 0 sums to -1; the 2 -> 3 -> 2 detour is positive.
  DifferenceSystem s(4);
  s.edges = {{0, 1, 2.0}, {1, 2, -4.0}, {2, 3, 1.0}, {3, 2, 0.0}, {2, 0, 1.0}};
  ASSERT_FALSE(s.solve());
  const std::vector<std::size_t>& cycle = s.witness();
  ASSERT_FALSE(cycle.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const DiffEdge& e = s.edges[cycle[i]];
    EXPECT_EQ(e.to, s.edges[cycle[(i + 1) % cycle.size()]].from);
    sum += e.weight;
  }
  EXPECT_LT(sum, 0.0);
}

TEST(BoundTable, KeepsTheTightestHardAndSoftBoundPerCell) {
  BoundTable t(2);
  t.tighten(0, 1, 5.0);
  t.tighten(0, 1, 3.0);
  t.tighten(0, 1, 1.0, /*soft=*/true);
  t.tighten(0, 1, 2.0, /*soft=*/true);
  EXPECT_EQ(t.hard[0 * 2 + 1], 3.0);
  EXPECT_EQ(t.soft[0 * 2 + 1], 1.0);
  EXPECT_EQ(t.hard[1 * 2 + 0], std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace effitest::core
