// Tests for the extension features layered on the core reproduction:
// analytic (SSTA-based) yield estimation, logic-masking exclusions flowing
// from the generator into batch construction, the brute-force-verified
// configurator optimum, and the table formatter used by the bench harness.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "batch_checks.hpp"
#include "core/configurator.hpp"
#include "core/flow.hpp"
#include "core/table.hpp"
#include "core/yield.hpp"
#include "netlist/generator.hpp"
#include "timing/ssta.hpp"

namespace effitest::core {
namespace {

struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  Problem problem;

  explicit Fixture(double exclusive_fraction = 0.0, std::uint64_t seed = 47)
      : circuit(netlist::generate_circuit([&] {
          netlist::GeneratorSpec s;
          s.num_flip_flops = 70;
          s.num_gates = 800;
          s.num_buffers = 2;
          s.num_critical_paths = 24;
          s.exclusive_fraction = exclusive_fraction;
          s.seed = seed;
          return s;
        }())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}
};

TEST(AnalyticYield, MatchesMonteCarloQuantiles) {
  Fixture f;
  stats::Rng rng(3);
  const double t1_mc = period_quantile(f.problem, 0.5, 3000, rng);
  const timing::CanonicalDelay clark = timing::ssta_required_period(f.model);
  const double t1_an = clark.quantile(0.5);
  const double sigma = clark.quantile(0.8413) - t1_an;
  EXPECT_NEAR(t1_an, t1_mc, 0.6 * sigma);
  // The analytic quantile is monotone in q.
  EXPECT_GT(sigma, 0.0);
}

TEST(AnalyticYield, AgreesWithSampledYield) {
  Fixture f;
  const double td = timing::ssta_required_period(f.model).quantile(0.75);
  stats::Rng rng(5);
  int pass = 0;
  const int chips = 2500;
  for (int c = 0; c < chips; ++c) {
    const timing::Chip chip = f.model.sample_chip(rng);
    if (chip_passes_untuned(f.problem, chip, td)) ++pass;
  }
  // Clark's Gaussian-max is mildly conservative in the upper tail (the true
  // max of correlated Gaussians is right-skewed), so allow a wider band.
  EXPECT_NEAR(static_cast<double>(pass) / chips, 0.75, 0.09);
}

TEST(Exclusions, GeneratorEmitsValidPairs) {
  Fixture f(0.10);
  EXPECT_FALSE(f.circuit.exclusive_edge_pairs.empty());
  for (const auto& [i, j] : f.circuit.exclusive_edge_pairs) {
    ASSERT_LT(i, f.circuit.critical_edges.size());
    ASSERT_LT(j, f.circuit.critical_edges.size());
    EXPECT_NE(i, j);
    // Exclusions are only emitted between batch-compatible edges.
    EXPECT_NE(f.circuit.critical_edges[i].first,
              f.circuit.critical_edges[j].first);
    EXPECT_NE(f.circuit.critical_edges[i].second,
              f.circuit.critical_edges[j].second);
  }
}

TEST(Exclusions, MapToMonitoredPairs) {
  Fixture f(0.10);
  const auto mapped = map_edge_exclusions(
      f.model, f.circuit.critical_edges, f.circuit.exclusive_edge_pairs);
  EXPECT_EQ(mapped.size(), f.circuit.exclusive_edge_pairs.size());
  for (const auto& [p, q] : mapped) {
    EXPECT_LT(p, f.model.num_pairs());
    EXPECT_LT(q, f.model.num_pairs());
  }
}

TEST(Exclusions, FlowSeparatesExcludedPaths) {
  Fixture f(0.10);
  FlowOptions opts;
  opts.use_prediction = false;  // batch everything so exclusions matter
  opts.batching.exclusions = map_edge_exclusions(
      f.model, f.circuit.critical_edges, f.circuit.exclusive_edge_pairs);
  stats::Rng rng(7);
  const FlowArtifacts art = prepare_flow(f.problem, opts, rng);
  for (const Batch& b : art.batches) {
    EXPECT_TRUE(batch_is_legal(f.problem, b, opts.batching));
  }
}

/// Brute-force optimum of eqs. 15-18 over the full discrete step grid for a
/// 2-buffer problem: the configurator's xi must match it exactly.
TEST(ConfiguratorBruteForce, MatchesExhaustiveOptimum) {
  Fixture f;
  ASSERT_EQ(f.problem.num_buffers(), 2u);
  const auto means = f.model.max_means();
  const auto sigmas = f.model.max_sigmas();
  std::vector<double> lower(means.size());
  std::vector<double> upper(means.size());
  for (std::size_t p = 0; p < means.size(); ++p) {
    lower[p] = means[p] - sigmas[p];
    upper[p] = means[p] + sigmas[p];
  }

  for (double offset : {-4.0, 2.0, 10.0}) {
    const double td = *std::max_element(means.begin(), means.end()) + offset;

    // Exhaustive search over all 20x20 step assignments.
    double best_xi = std::numeric_limits<double>::infinity();
    std::vector<int> steps(2);
    for (int s0 = 0; s0 < f.problem.buffers()[0].steps; ++s0) {
      for (int s1 = 0; s1 < f.problem.buffers()[1].steps; ++s1) {
        steps[0] = s0;
        steps[1] = s1;
        bool feasible = true;
        double xi = 0.0;
        for (std::size_t p = 0; p < means.size(); ++p) {
          const double skew = f.problem.pair_skew(p, steps);
          if (skew > td - lower[p] + 1e-12) {
            feasible = false;
            break;
          }
          xi = std::max(xi, upper[p] + skew - td);
        }
        if (feasible) best_xi = std::min(best_xi, std::max(xi, 0.0));
      }
    }

    const ConfigResult r = configure_buffers(f.problem, td, lower, upper, {});
    if (std::isinf(best_xi)) {
      EXPECT_FALSE(r.feasible) << "offset " << offset;
    } else {
      ASSERT_TRUE(r.feasible) << "offset " << offset;
      EXPECT_NEAR(r.xi, best_xi, 1e-6) << "offset " << offset;
    }
  }
}

TEST(TablePrinter, AlignsAndValidates) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "22.50"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22.50"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), std::invalid_argument);
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::size_t{42}), "42");
}

}  // namespace
}  // namespace effitest::core
