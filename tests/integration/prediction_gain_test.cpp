// The FlowArtifacts-cached PredictionGain contract: the gain (Cholesky of
// Sigma_t + W + posterior sigmas) is a pure function of (covariance,
// measured set), computed once during offline preparation and shared — so
// predicting through the cached object must be byte-identical to rebuilding
// the predictor from scratch, per chip and at the FlowMetrics level.

#include <gtest/gtest.h>

#include <cstring>

#include "core/flow.hpp"
#include "core/predictor.hpp"
#include "netlist/generator.hpp"
#include "stats/conditional.hpp"
#include "timing/model.hpp"

namespace effitest::core {
namespace {

struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  Problem problem;

  Fixture()
      : circuit(netlist::generate_circuit(
            netlist::paper_benchmark_spec("s9234"))),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}
};

void expect_metrics_identical(const FlowMetrics& a, const FlowMetrics& b) {
  EXPECT_EQ(a.npt, b.npt);
  EXPECT_EQ(a.num_groups, b.num_groups);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.num_selected, b.num_selected);
  EXPECT_EQ(a.forced_resolutions, b.forced_resolutions);
  EXPECT_EQ(a.infeasible_configs, b.infeasible_configs);
  EXPECT_EQ(a.designated_period, b.designated_period);
  EXPECT_EQ(a.epsilon_ps, b.epsilon_ps);
  EXPECT_EQ(a.ta, b.ta);
  EXPECT_EQ(a.tv, b.tv);
  EXPECT_EQ(a.ta_pathwise, b.ta_pathwise);
  EXPECT_EQ(a.tv_pathwise, b.tv_pathwise);
  EXPECT_EQ(a.ra, b.ra);
  EXPECT_EQ(a.rv, b.rv);
  EXPECT_EQ(a.yield_no_buffer, b.yield_no_buffer);
  EXPECT_EQ(a.yield_ideal, b.yield_ideal);
  EXPECT_EQ(a.yield_proposed, b.yield_proposed);
  EXPECT_EQ(a.yield_drop, b.yield_drop);
}

TEST(PredictionGain, SharedPredictorMatchesFreshRebuildPerChip) {
  Fixture f;
  FlowOptions opts;
  opts.chips = 20;
  opts.seed = 99;
  stats::Rng prep_rng(opts.seed);
  const FlowArtifacts art = prepare_flow(f.problem, opts, prep_rng);
  ASSERT_TRUE(art.predictor.has_value());

  // Rebuild the predictor from scratch exactly as a per-chip rebuild would:
  // same covariance, same measured set, fresh factorization.
  const linalg::Matrix cov = f.model.max_covariance();
  const DelayPredictor rebuilt(
      stats::PredictionGain::compute(cov, art.tested, /*jitter=*/1e-9),
      f.model.max_means());

  // The chip-independent pieces must agree bit-for-bit.
  const auto& cached = *art.predictor;
  ASSERT_EQ(cached.tested_indices(), rebuilt.tested_indices());
  ASSERT_EQ(cached.predicted_indices(), rebuilt.predicted_indices());
  ASSERT_EQ(cached.posterior_sigma().size(), rebuilt.posterior_sigma().size());
  for (std::size_t k = 0; k < cached.posterior_sigma().size(); ++k) {
    ASSERT_EQ(cached.posterior_sigma()[k], rebuilt.posterior_sigma()[k]);
  }

  // And the per-chip prediction through both objects.
  stats::Rng chip_rng(1234);
  for (int c = 0; c < 5; ++c) {
    const timing::Chip chip = f.model.sample_chip(chip_rng);
    std::vector<double> ml(art.tested.size());
    std::vector<double> mu(art.tested.size());
    for (std::size_t t = 0; t < art.tested.size(); ++t) {
      ml[t] = chip.max_delay[art.tested[t]] - 0.25;
      mu[t] = chip.max_delay[art.tested[t]] + 0.25;
    }
    const DelayBounds a = cached.predict(ml, mu);
    const DelayBounds b = rebuilt.predict(ml, mu);
    ASSERT_EQ(a.lower.size(), b.lower.size());
    ASSERT_EQ(0, std::memcmp(a.lower.data(), b.lower.data(),
                             a.lower.size() * sizeof(double)));
    ASSERT_EQ(0, std::memcmp(a.upper.data(), b.upper.data(),
                             a.upper.size() * sizeof(double)));
  }
}

TEST(PredictionGain, AdoptedGainSharesInsteadOfCopying) {
  Fixture f;
  const linalg::Matrix cov = f.model.max_covariance();
  std::vector<std::size_t> tested;
  for (std::size_t p = 0; p < f.model.num_pairs(); p += 5) tested.push_back(p);
  const DelayPredictor original(stats::PredictionGain::compute(cov, tested),
                                f.model.max_means());

  // Adoption and copy both alias the same immutable PredictionGain.
  const DelayPredictor adopted(original.shared_gain(), f.model.max_means());
  EXPECT_EQ(adopted.shared_gain().get(), original.shared_gain().get());
  const DelayPredictor copy = original;
  EXPECT_EQ(copy.shared_gain().get(), original.shared_gain().get());
  EXPECT_GE(original.shared_gain().use_count(), 3);
}

TEST(PredictionGain, CachedFlowMetricsMatchRebuiltFlowMetrics) {
  // run_flow over reused artifacts (the cached-gain path shared by every
  // chip and campaign job) versus a from-scratch preparation: byte-identical
  // FlowMetrics, preparation wall time excepted.
  Fixture f;
  FlowOptions opts;
  opts.chips = 60;
  opts.seed = 7;
  const FlowResult fresh = run_flow(f.problem, opts);
  const FlowResult cached = run_flow(f.problem, opts, fresh.artifacts);
  expect_metrics_identical(fresh.metrics, cached.metrics);

  // The reused artifacts alias the same gain object — reuse shares, it does
  // not refactorize or deep-copy.
  ASSERT_TRUE(fresh.artifacts->predictor.has_value());
  ASSERT_TRUE(cached.artifacts->predictor.has_value());
  EXPECT_EQ(fresh.artifacts->predictor->shared_gain().get(),
            cached.artifacts->predictor->shared_gain().get());
}

}  // namespace
}  // namespace effitest::core
