#include "timing/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/bench_parser.hpp"

namespace effitest::timing {
namespace {

const netlist::CellLibrary& lib() {
  static const netlist::CellLibrary library = netlist::CellLibrary::standard();
  return library;
}

TimingGraph::ConeArrival swept(const TimingGraph& g, int src_ff) {
  TimingGraph::ConeArrival cone;
  g.sweep(src_ff, cone);
  return cone;
}

/// ff1 -> b1 -> b2 -> ff2 plus a parallel longer branch b3 -> b4 -> b5.
struct DiamondFixture {
  netlist::Netlist nl{"diamond"};
  int ff1, ff2, b1, b2, b3, b4, b5, merge;

  DiamondFixture() {
    ff1 = nl.add_cell("ff1", netlist::CellType::kDff);
    b1 = nl.add_cell("b1", netlist::CellType::kBuf, {ff1});
    b2 = nl.add_cell("b2", netlist::CellType::kBuf, {b1});
    b3 = nl.add_cell("b3", netlist::CellType::kNot, {ff1});
    b4 = nl.add_cell("b4", netlist::CellType::kNot, {b3});
    b5 = nl.add_cell("b5", netlist::CellType::kNot, {b4});
    merge = nl.add_cell("merge", netlist::CellType::kAnd, {b2, b5});
    ff2 = nl.add_cell("ff2", netlist::CellType::kDff, {merge});
    nl.set_fanins(ff1, {merge});  // sequential loop, fine
  }
};

TEST(TimingGraph, CellDelaysFromLibrary) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  EXPECT_DOUBLE_EQ(g.cell_delay(f.b1),
                   lib().timing(netlist::CellType::kBuf).nominal_delay_ps);
  EXPECT_DOUBLE_EQ(g.cell_delay(f.ff1), lib().dff_clk_to_q_ps());
}

TEST(TimingGraph, PairDelaysMaxAndMin) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  const auto pairs = g.all_pair_delays();
  ASSERT_EQ(pairs.size(), 2u);  // ff1->ff2 and ff1->ff1 (through loop? no:
  // ff1's D comes from merge which is fed by ff1's cone) — both pairs exist.
  const double clkq = lib().dff_clk_to_q_ps();
  const double buf = lib().timing(netlist::CellType::kBuf).nominal_delay_ps;
  const double inv = lib().timing(netlist::CellType::kNot).nominal_delay_ps;
  const double andd = lib().timing(netlist::CellType::kAnd).nominal_delay_ps;
  for (const PairDelay& pd : pairs) {
    EXPECT_EQ(pd.src_ff, f.ff1);
    EXPECT_NEAR(pd.max_delay, clkq + 3.0 * inv + andd, 1e-9);
    EXPECT_NEAR(pd.min_delay, clkq + 2.0 * buf + andd, 1e-9);
  }
}

TEST(TimingGraph, NearCriticalPathEnumeration) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  // Wide window captures both branches.
  const auto paths =
      g.near_critical_paths(swept(g, f.ff1), f.ff1, f.ff2, 100.0, 10);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_GE(paths[0].nominal_delay, paths[1].nominal_delay);
  // Longest path goes through the NOT chain.
  EXPECT_EQ(paths[0].gates.size(), 4u);  // b3 b4 b5 merge
  EXPECT_EQ(paths[1].gates.size(), 3u);  // b1 b2 merge
}

TEST(TimingGraph, WindowPrunesShortBranch) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  const auto paths =
      g.near_critical_paths(swept(g, f.ff1), f.ff1, f.ff2, 0.5, 10);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].gates.size(), 4u);
}

TEST(TimingGraph, PathCapRespected) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  const auto paths =
      g.near_critical_paths(swept(g, f.ff1), f.ff1, f.ff2, 100.0, 1);
  ASSERT_EQ(paths.size(), 1u);
  // The cap must keep the critical path.
  EXPECT_EQ(paths[0].gates.size(), 4u);
}

TEST(TimingGraph, PathDelayConsistentWithGateSum) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  for (const StructuralPath& p :
       g.near_critical_paths(swept(g, f.ff1), f.ff1, f.ff2, 100.0, 10)) {
    double acc = g.cell_delay(p.src_ff);
    for (int gate : p.gates) acc += g.cell_delay(gate);
    EXPECT_NEAR(acc, p.nominal_delay, 1e-9);
  }
}

TEST(TimingGraph, MinPathIsShortBranch) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  const StructuralPath mp = g.min_path(swept(g, f.ff1), f.ff1, f.ff2);
  EXPECT_EQ(mp.gates.size(), 3u);  // b1 b2 merge
  double acc = g.cell_delay(f.ff1);
  for (int gate : mp.gates) acc += g.cell_delay(gate);
  EXPECT_NEAR(acc, mp.nominal_delay, 1e-9);
}

TEST(TimingGraph, DisconnectedPairRejected) {
  netlist::Netlist nl;
  const int pi = nl.add_cell("pi", netlist::CellType::kInput);
  const int g1 = nl.add_cell("g1", netlist::CellType::kBuf, {pi});
  const int ffa = nl.add_cell("ffa", netlist::CellType::kDff, {g1});
  const int g2 = nl.add_cell("g2", netlist::CellType::kBuf, {pi});
  const int ffb = nl.add_cell("ffb", netlist::CellType::kDff, {g2});
  const TimingGraph g(nl, lib());
  const TimingGraph::ConeArrival cone = swept(g, ffa);
  EXPECT_TRUE(g.near_critical_paths(cone, ffa, ffb, 10.0, 4).empty());
  EXPECT_THROW((void)g.min_path(cone, ffa, ffb), netlist::NetlistError);
  EXPECT_TRUE(g.all_pair_delays().empty());
}

TEST(TimingGraph, NominalCriticalDelay) {
  DiamondFixture f;
  const TimingGraph g(f.nl, lib());
  const double clkq = lib().dff_clk_to_q_ps();
  const double inv = lib().timing(netlist::CellType::kNot).nominal_delay_ps;
  const double andd = lib().timing(netlist::CellType::kAnd).nominal_delay_ps;
  double critical = 0.0;
  for (const PairDelay& pd : g.all_pair_delays()) {
    critical = std::max(critical, pd.max_delay);
  }
  EXPECT_NEAR(critical, clkq + 3.0 * inv + andd, 1e-9);
}

TEST(TimingGraph, WorksOnParsedBench) {
  const netlist::Netlist nl = netlist::parse_bench_string(R"(
INPUT(a)
f1 = DFF(g2)
g1 = NOT(f1)
g2 = NAND(g1, a)
)");
  const TimingGraph g(nl, lib());
  const auto pairs = g.all_pair_delays();
  ASSERT_EQ(pairs.size(), 1u);  // f1 -> f1 self-loop through g1, g2
  EXPECT_EQ(pairs[0].src_ff, pairs[0].dst_ff);
  const double expected =
      lib().dff_clk_to_q_ps() +
      lib().timing(netlist::CellType::kNot).nominal_delay_ps +
      lib().timing(netlist::CellType::kNand).nominal_delay_ps;
  EXPECT_NEAR(pairs[0].max_delay, expected, 1e-9);
}

}  // namespace
}  // namespace effitest::timing
