// FlowArtifacts reuse contract: the offline preparation does not depend on
// the designated period T_d, so sweeping T_d with `reuse` (the Table-2
// pattern) must reproduce a fresh prepare_flow exactly — same artifacts,
// same per-chip streams, same metrics. Also pins the seeding contract:
// results are identical for any FlowOptions::threads — covering every
// parallel section (the chip loop, hold-bound sampling, Procedure-1 PCA)
// and the campaign runner built on top of them.

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/flow.hpp"
#include "core/hold_bounds.hpp"
#include "core/yield.hpp"
#include "netlist/generator.hpp"
#include "timing/model.hpp"

namespace effitest::core {
namespace {

FlowOptions small_options() {
  FlowOptions opts;
  opts.chips = 80;
  opts.seed = 99;
  opts.threads = 1;
  return opts;
}

void expect_same_outcome(const FlowResult& fresh, const FlowResult& reused) {
  const FlowMetrics& a = fresh.metrics;
  const FlowMetrics& b = reused.metrics;
  EXPECT_DOUBLE_EQ(a.designated_period, b.designated_period);
  EXPECT_DOUBLE_EQ(a.epsilon_ps, b.epsilon_ps);
  EXPECT_EQ(a.npt, b.npt);
  EXPECT_EQ(a.num_groups, b.num_groups);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.num_selected, b.num_selected);
  EXPECT_DOUBLE_EQ(a.ta, b.ta);
  EXPECT_DOUBLE_EQ(a.tv, b.tv);
  EXPECT_DOUBLE_EQ(a.ta_pathwise, b.ta_pathwise);
  EXPECT_DOUBLE_EQ(a.yield_no_buffer, b.yield_no_buffer);
  EXPECT_DOUBLE_EQ(a.yield_ideal, b.yield_ideal);
  EXPECT_DOUBLE_EQ(a.yield_proposed, b.yield_proposed);
  EXPECT_EQ(a.forced_resolutions, b.forced_resolutions);
  EXPECT_EQ(a.infeasible_configs, b.infeasible_configs);

  EXPECT_EQ(fresh.artifacts->tested, reused.artifacts->tested);
  ASSERT_EQ(fresh.artifacts->batches.size(), reused.artifacts->batches.size());
  for (std::size_t i = 0; i < fresh.artifacts->batches.size(); ++i) {
    EXPECT_EQ(fresh.artifacts->batches[i].paths,
              reused.artifacts->batches[i].paths);
  }
  ASSERT_EQ(fresh.artifacts->hold.size(), reused.artifacts->hold.size());
  for (std::size_t i = 0; i < fresh.artifacts->hold.size(); ++i) {
    EXPECT_EQ(fresh.artifacts->hold[i].src_buf,
              reused.artifacts->hold[i].src_buf);
    EXPECT_EQ(fresh.artifacts->hold[i].dst_buf,
              reused.artifacts->hold[i].dst_buf);
    EXPECT_DOUBLE_EQ(fresh.artifacts->hold[i].lambda,
                     reused.artifacts->hold[i].lambda);
  }
}

TEST(FlowReuse, SweepingDesignatedPeriodMatchesFreshPrepare) {
  const netlist::GeneratedCircuit circuit =
      netlist::generate_circuit(netlist::paper_benchmark_spec("s9234"));
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs);
  const Problem problem(model);

  const FlowOptions base = small_options();

  // Prepare once (artifacts are T_d-independent) ...
  const FlowResult first = run_flow(problem, base);
  const std::shared_ptr<const FlowArtifacts> prepared = first.artifacts;
  const double t1 = first.metrics.designated_period;
  ASSERT_GT(t1, 0.0);

  // ... then sweep T_d, comparing a fresh prepare against the reuse path.
  for (const double scale : {0.95, 1.0, 1.05}) {
    FlowOptions opts = base;
    opts.designated_period = scale * t1;
    const FlowResult fresh = run_flow(problem, opts);
    const FlowResult reused = run_flow(problem, opts, prepared);
    SCOPED_TRACE("T_d scale " + std::to_string(scale));
    expect_same_outcome(fresh, reused);
    // The calibration fork is taken whether or not T_d is given, so the
    // calibrated T1 passed explicitly is the default run, bit for bit.
    if (scale == 1.0) expect_same_outcome(first, fresh);
  }
}

TEST(FlowReuse, ThreadCountDoesNotChangeResults) {
  const netlist::GeneratedCircuit circuit =
      netlist::generate_circuit(netlist::paper_benchmark_spec("s9234"));
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs);
  const Problem problem(model);

  // threads covers every parallel section: the chip loop plus (inherited
  // through prepare_flow) hold-bound sampling and the Procedure-1 PCA.
  FlowOptions serial = small_options();
  FlowOptions parallel = small_options();
  parallel.threads = 4;

  const FlowResult a = run_flow(problem, serial);
  const FlowResult b = run_flow(problem, parallel);
  expect_same_outcome(a, b);
}

TEST(FlowReuse, HoldBoundSamplingIsThreadInvariant) {
  const netlist::GeneratedCircuit circuit =
      netlist::generate_circuit(netlist::paper_benchmark_spec("s9234"));
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs);
  const Problem problem(model);

  const auto options_with_threads = [](std::size_t threads) {
    HoldBoundOptions options;
    options.samples = 300;
    options.threads = threads;
    return options;
  };

  // The sampled margin matrix itself must be bit-identical for any worker
  // count (non-vacuous even when range pruning later drops every bound).
  stats::Rng serial_rng(4242);
  const HoldMarginSamples serial_samples =
      sample_hold_margins(problem, serial_rng, options_with_threads(1));
  ASSERT_FALSE(serial_samples.exposed.empty());
  ASSERT_EQ(serial_samples.delta.size(), 300u);
  for (const std::size_t threads : {std::size_t{4}, std::size_t{0}}) {
    stats::Rng rng(4242);
    const HoldMarginSamples parallel_samples =
        sample_hold_margins(problem, rng, options_with_threads(threads));
    SCOPED_TRACE("threads = " + std::to_string(threads));
    EXPECT_EQ(parallel_samples.exposed, serial_samples.exposed);
    EXPECT_EQ(parallel_samples.delta, serial_samples.delta);  // bit-identical
  }

  // ... and so must the derived (merged + pruned) bounds.
  const auto bounds_with_threads = [&](std::size_t threads) {
    stats::Rng rng(4242);
    return compute_hold_bounds(problem, rng, options_with_threads(threads));
  };
  const std::vector<HoldConstraintX> serial = bounds_with_threads(1);
  for (const std::size_t threads : {std::size_t{4}, std::size_t{0}}) {
    const std::vector<HoldConstraintX> parallel = bounds_with_threads(threads);
    SCOPED_TRACE("threads = " + std::to_string(threads));
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].src_buf, serial[i].src_buf);
      EXPECT_EQ(parallel[i].dst_buf, serial[i].dst_buf);
      EXPECT_EQ(parallel[i].lambda, serial[i].lambda);  // bit-identical
    }
  }
}

TEST(FlowReuse, CampaignRunnerIsThreadInvariantAndMatchesDirectFlow) {
  const auto campaign_with_threads = [](std::size_t threads) {
    CampaignOptions options;
    options.flow = small_options();
    options.flow.chips = 60;
    options.flow.threads = threads;
    options.threads = threads;
    return CampaignRunner(options).run(
        CampaignRunner::cross({"s9234"}, {0.5, 0.8413}));
  };

  const CampaignResult serial = campaign_with_threads(1);
  const CampaignResult parallel = campaign_with_threads(4);
  ASSERT_EQ(serial.jobs.size(), 2u);
  ASSERT_EQ(parallel.jobs.size(), 2u);
  for (std::size_t j = 0; j < serial.jobs.size(); ++j) {
    const FlowMetrics& a = serial.jobs[j].metrics;
    const FlowMetrics& b = parallel.jobs[j].metrics;
    SCOPED_TRACE("job " + std::to_string(j));
    EXPECT_DOUBLE_EQ(a.designated_period, b.designated_period);
    EXPECT_EQ(a.npt, b.npt);
    EXPECT_DOUBLE_EQ(a.ta, b.ta);
    EXPECT_DOUBLE_EQ(a.yield_no_buffer, b.yield_no_buffer);
    EXPECT_DOUBLE_EQ(a.yield_ideal, b.yield_ideal);
    EXPECT_DOUBLE_EQ(a.yield_proposed, b.yield_proposed);
    EXPECT_EQ(a.forced_resolutions, b.forced_resolutions);
    EXPECT_EQ(a.infeasible_configs, b.infeasible_configs);
  }

  // The q=0.5 job must be exactly a direct default-T1 run_flow: one
  // calibration sample serves both, and the runner adds scheduling and
  // artifact reuse, nothing else.
  const netlist::GeneratedCircuit circuit =
      netlist::generate_circuit(netlist::paper_benchmark_spec("s9234"));
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, lib, circuit.buffered_ffs);
  const Problem problem(model);
  FlowOptions direct = small_options();
  direct.chips = 60;
  const FlowResult reference = run_flow(problem, direct);
  EXPECT_DOUBLE_EQ(serial.jobs[0].metrics.designated_period,
                   reference.metrics.designated_period);
  EXPECT_DOUBLE_EQ(serial.jobs[0].metrics.ta, reference.metrics.ta);
  EXPECT_DOUBLE_EQ(serial.jobs[0].metrics.yield_proposed,
                   reference.metrics.yield_proposed);
  EXPECT_EQ(serial.jobs[0].metrics.npt, reference.metrics.npt);
}

}  // namespace
}  // namespace effitest::core
