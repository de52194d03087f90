// Golden-metrics regression lock. A small fixed-seed run_flow over a
// generated circuit pins the FlowMetrics fields to recorded values, so any
// refactor that silently changes numerical results — a reordered reduction,
// a reseeded stream, an off-by-one in the chunking — fails tier-1 instead
// of drifting unnoticed. Companion to the relative checks in
// flow_reuse_test.cpp (those catch thread-variance, this catches "all
// thread counts changed together").
//
// Every draw behind these values is specified in-tree (stats::Rng), so
// they hold under any standard library.

#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "netlist/generator.hpp"
#include "timing/model.hpp"

namespace effitest::core {
namespace {

TEST(GoldenMetrics, SmallFixedSeedFlowPinsRecordedValues) {
  const netlist::GeneratedCircuit circuit =
      netlist::generate_circuit(netlist::paper_benchmark_spec("s9234"));
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs);
  const Problem problem(model);

  FlowOptions opts;
  opts.chips = 200;
  opts.seed = 2016;
  opts.threads = 0;  // pool width — the determinism contract makes this moot
  const FlowResult result = run_flow(problem, opts);
  const FlowMetrics& m = result.metrics;

  // Structure-independent sanity first (any platform).
  EXPECT_EQ(m.np, 80u);
  EXPECT_GT(m.npt, 0u);
  EXPECT_LT(m.npt, m.np);
  EXPECT_GT(m.ta, 0.0);
  EXPECT_LT(m.ta, m.ta_pathwise);
  EXPECT_GE(m.yield_ideal, m.yield_proposed);

  // Recorded golden values (any architecture/thread count).
  EXPECT_EQ(m.npt, 6u);
  EXPECT_EQ(m.num_groups, 5u);
  EXPECT_EQ(m.num_batches, 2u);
  EXPECT_EQ(m.num_selected, 6u);
  EXPECT_EQ(m.forced_resolutions, 0u);
  EXPECT_EQ(m.infeasible_configs, 56u);
  EXPECT_DOUBLE_EQ(m.designated_period, 202.16257026567348);
  EXPECT_DOUBLE_EQ(m.epsilon_ps, 0.17228543250136971);
  EXPECT_DOUBLE_EQ(m.ta, 26.89);
  EXPECT_DOUBLE_EQ(m.tv, 4.4816666666666665);
  EXPECT_DOUBLE_EQ(m.ta_pathwise, 720.0);
  EXPECT_DOUBLE_EQ(m.yield_no_buffer, 0.53);
  EXPECT_DOUBLE_EQ(m.yield_ideal, 0.695);
  EXPECT_DOUBLE_EQ(m.yield_proposed, 0.66);
}

TEST(GoldenMetrics, ParallelCovarianceFillMatchesSerialReference) {
  // A spec large enough to cross the covariance fill's serial_below
  // threshold (256 rows), so the pool actually fans the triangle out; every
  // cell must still equal the serial pure-function evaluation bit-for-bit.
  netlist::GeneratorSpec spec = netlist::paper_benchmark_spec("s9234");
  spec.num_critical_paths = 320;
  spec.num_buffers = 4;
  const netlist::GeneratedCircuit circuit = netlist::generate_circuit(spec);
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs);

  const std::size_t n = model.num_pairs();
  ASSERT_GE(n, 256u);
  const linalg::Matrix cov = model.max_covariance();
  const linalg::Matrix cov_again = model.max_covariance();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double expected = model.max_cov(i, j);
      ASSERT_EQ(cov(i, j), expected) << "cell " << i << "," << j;
      ASSERT_EQ(cov(j, i), expected) << "mirror " << i << "," << j;
      ASSERT_EQ(cov_again(i, j), expected) << "rerun " << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace effitest::core
