// Unit suite for the analytic post-tuning engine (src/analytic/): the
// per-die minimal feasible period against an independent brute-force
// grid search, the criticality accounting (masses sum to 1), the
// untuned form against the block-based SSTA it must reproduce, the
// yield-curve/quantile inverse pair, and bit-identical determinism of
// the Monte-Carlo reference across thread counts, whose one pass yields
// each die's untuned and tuned periods.

#include "analytic/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "core/yield.hpp"
#include "netlist/generator.hpp"
#include "scenario/circuit_catalog.hpp"
#include "stats/rng.hpp"
#include "timing/model.hpp"
#include "timing/ssta.hpp"

namespace effitest {
namespace {

/// A generated circuit + model + problem, shared per spec.
struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary library;
  timing::CircuitModel model;
  core::Problem problem;

  explicit Fixture(std::size_t ffs, std::size_t gates, std::size_t buffers,
                   std::size_t paths, std::uint64_t seed)
      : circuit(netlist::generate_circuit([&] {
          netlist::GeneratorSpec s;
          s.num_flip_flops = ffs;
          s.num_gates = gates;
          s.num_buffers = buffers;
          s.num_critical_paths = paths;
          s.seed = seed;
          return s;
        }())),
        library(netlist::CellLibrary::standard()),
        model(circuit.netlist, library, circuit.buffered_ffs),
        problem(model) {}
};

const Fixture& one_buffer() {
  static const Fixture f(30, 300, 1, 12, 3);
  return f;
}

const Fixture& three_buffers() {
  static const Fixture f(60, 700, 3, 24, 5);
  return f;
}

TEST(AnalyticEngine, MinFeasiblePeriodMatchesBruteForceGrid) {
  // nb = 1: the tuning space is one scalar x in [l, u], so the exact
  // minimal feasible period is min over x of max over pairs of
  // (D_p + x_src - x_dst) (virtual node fixed at 0), computable by an
  // independent dense grid sweep. Statics bound from below.
  const Fixture& f = one_buffer();
  ASSERT_EQ(f.problem.num_buffers(), 1u);
  const double l = f.problem.buffers()[0].r;
  const double u = l + f.problem.buffers()[0].tau;

  stats::Rng rng(2016);
  timing::SampleWorkspace ws;
  constexpr int kGrid = 4000;
  const double resolution = (u - l) / kGrid;
  for (int c = 0; c < 20; ++c) {
    const timing::Chip chip = f.model.sample_chip(rng, ws);
    double best = std::numeric_limits<double>::infinity();
    for (int g = 0; g <= kGrid; ++g) {
      const double x = l + (u - l) * static_cast<double>(g) / kGrid;
      double worst = 0.0;
      for (const double d : chip.static_delay) worst = std::max(worst, d);
      for (std::size_t p = 0; p < f.model.num_pairs(); ++p) {
        const double xs = f.problem.src_buffer(p) >= 0 ? x : 0.0;
        const double xd = f.problem.dst_buffer(p) >= 0 ? x : 0.0;
        worst = std::max(worst, chip.max_delay[p] + xs - xd);
      }
      best = std::min(best, worst);
    }
    const double exact = analytic::min_feasible_period(f.problem, chip);
    EXPECT_NEAR(exact, best, resolution + 1e-6) << "chip " << c;
  }
}

TEST(AnalyticEngine, CriticalityMassesSumToOne) {
  const analytic::TunedPeriodAnalysis a =
      analytic::analyze_tuned_period(three_buffers().problem);
  ASSERT_FALSE(a.candidates.empty());

  double candidate_sum = 0.0;
  for (const analytic::CandidateConstraint& c : a.candidates) {
    EXPECT_GE(c.criticality, 0.0);
    EXPECT_LE(c.criticality, 1.0 + 1e-12);
    candidate_sum += c.criticality;
  }
  EXPECT_NEAR(candidate_sum, 1.0, 1e-9);

  double pair_sum = a.static_criticality;
  for (const double p : a.pair_criticality) {
    EXPECT_GE(p, 0.0);
    pair_sum += p;
  }
  // Pair attribution only loses mass if a traceback was abandoned (guard
  // counter) — never on these fixtures.
  EXPECT_NEAR(pair_sum, 1.0, 1e-9);
}

TEST(AnalyticEngine, UntunedMatchesBlockBasedSsta) {
  // The engine's untuned form is the model-variant block-based SSTA
  // result: same forms (monitored, then promoted static), same statistical
  // max. ac97_ctrl has static pairs.
  const auto ac97 =
      scenario::CircuitCatalog::shared_paper()->resolve("ac97_ctrl", 1.0);
  ASSERT_GT(ac97->model.num_static_pairs(), 0u);
  const std::pair<const timing::CircuitModel*, const core::Problem*> cases[] =
      {{&three_buffers().model, &three_buffers().problem},
       {&ac97->model, &ac97->problem}};
  for (const auto& [model, problem] : cases) {
    const analytic::TunedPeriodAnalysis a =
        analytic::analyze_tuned_period(*problem);
    const timing::CanonicalDelay reference =
        timing::ssta_required_period(*model);
    EXPECT_EQ(a.untuned.mean, reference.mean);
    EXPECT_EQ(a.untuned.variance(), reference.variance());
  }
}

TEST(AnalyticEngine, TuningNeverHurts) {
  for (const Fixture* f : {&one_buffer(), &three_buffers()}) {
    const analytic::TunedPeriodAnalysis a =
        analytic::analyze_tuned_period(f->problem);
    EXPECT_LE(a.tuned.mean, a.untuned.mean + 1e-9);
  }
}

TEST(AnalyticEngine, StaticOnlyModelTunesToItsUntunedPeriod) {
  // Without buffers every register pair is a promoted static form and
  // nothing is tunable: the one candidate is the static fold, so the tuned
  // period is the untuned one, and each die's minimal feasible period is
  // its largest static delay.
  netlist::GeneratorSpec spec;
  spec.num_flip_flops = 50;
  spec.num_gates = 600;
  spec.num_buffers = 2;
  spec.num_critical_paths = 14;
  spec.seed = 37;
  const auto circuit = netlist::generate_circuit(spec);
  const auto library = netlist::CellLibrary::standard();
  const timing::CircuitModel model(circuit.netlist, library, {});
  const core::Problem problem(model);
  ASSERT_EQ(model.num_pairs(), 0u);
  ASSERT_GT(model.num_static_pairs(), 0u);

  const analytic::TunedPeriodAnalysis a =
      analytic::analyze_tuned_period(problem);
  EXPECT_EQ(a.tuned.mean, a.untuned.mean);
  EXPECT_EQ(a.tuned.loading, a.untuned.loading);
  EXPECT_EQ(a.tuned.indep_var, a.untuned.indep_var);
  ASSERT_EQ(a.candidates.size(), 1u);
  EXPECT_TRUE(a.candidates.front().is_static);
  EXPECT_EQ(a.static_criticality, 1.0);
  EXPECT_TRUE(a.pair_criticality.empty());

  stats::Rng rng(2016);
  const timing::Chip chip = model.sample_chip(rng);
  EXPECT_EQ(analytic::min_feasible_period(problem, chip),
            *std::ranges::max_element(chip.static_delay));
}

TEST(AnalyticEngine, YieldCurveIsMonotoneAndInvertsQuantile) {
  const analytic::TunedPeriodAnalysis a =
      analytic::analyze_tuned_period(three_buffers().problem);
  const double lo = a.tuned.mean - 4.0 * a.tuned.sigma();
  const double hi = a.tuned.mean + 4.0 * a.tuned.sigma();
  // 33 equally spaced points over [lo, hi].
  double previous = a.tuned.cdf(lo);
  for (std::size_t i = 1; i < 33; ++i) {
    const double t = lo + (hi - lo) * static_cast<double>(i) / 32.0;
    const double y = a.tuned.cdf(t);
    EXPECT_GE(y, previous) << "point " << i;
    previous = y;
  }
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(a.tuned.cdf(a.tuned.quantile(q)), q, 1e-9);
  }
  EXPECT_NEAR(a.tuned.cdf(a.tuned.mean), 0.5, 1e-12);
}

TEST(AnalyticEngine, AnalysisIsDeterministic) {
  const analytic::TunedPeriodAnalysis a =
      analytic::analyze_tuned_period(three_buffers().problem);
  const analytic::TunedPeriodAnalysis b =
      analytic::analyze_tuned_period(three_buffers().problem);
  EXPECT_EQ(a.tuned.mean, b.tuned.mean);
  EXPECT_EQ(a.tuned.variance(), b.tuned.variance());
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].criticality, b.candidates[i].criticality);
    EXPECT_EQ(a.candidates[i].pairs, b.candidates[i].pairs);
  }
}

TEST(AnalyticEngine, McReferenceIsThreadInvariant) {
  analytic::McTunedOptions o1;
  o1.chips = 64;
  o1.seed = 7;
  o1.threads = 1;
  analytic::McTunedOptions o4 = o1;
  o4.threads = 4;
  const analytic::McTunedPeriod a =
      analytic::mc_tuned_period(three_buffers().problem, o1);
  const analytic::McTunedPeriod b =
      analytic::mc_tuned_period(three_buffers().problem, o4);
  ASSERT_EQ(a.periods.size(), b.periods.size());
  for (std::size_t i = 0; i < a.periods.size(); ++i) {
    EXPECT_EQ(a.periods[i], b.periods[i]) << "chip " << i;
  }
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.sigma, b.sigma);

  for (const double p : a.periods) {
    EXPECT_GT(p, 0.0);
  }
}

TEST(AnalyticEngine, McReferenceTunesTheUntunedSamplersDies) {
  // One pass yields both periods of every die: the untuned ones are the
  // lane sampler's on the same base (bit for bit, as a sorted sample), and
  // tuning never raises a die's period. Without buffers it changes none.
  for (const Fixture* f : {&one_buffer(), &three_buffers()}) {
    stats::Rng rng(9);
    analytic::McTunedOptions o;
    o.chips = 96;
    o.seed = stats::Rng(9).engine()();
    const analytic::McTunedPeriod mc = analytic::mc_tuned_period(f->problem, o);
    std::vector<double> untuned = mc.untuned;
    std::sort(untuned.begin(), untuned.end());
    EXPECT_EQ(untuned, core::sample_required_periods(f->problem, o.chips, rng));
    for (std::size_t i = 0; i < o.chips; ++i) {
      EXPECT_LE(mc.periods[i], mc.untuned[i]) << "chip " << i;
    }
  }
  const Fixture& f = one_buffer();
  const timing::CircuitModel model(f.circuit.netlist, f.library, {});
  const core::Problem unbuffered(model);
  analytic::McTunedOptions o;
  o.chips = 96;
  const analytic::McTunedPeriod mc = analytic::mc_tuned_period(unbuffered, o);
  EXPECT_EQ(mc.periods, mc.untuned);
}

TEST(AnalyticEngine, McQuantileInterpolatesLikePeriodQuantile) {
  // The empirical convention of core::period_quantile (linear
  // interpolation between order statistics), so `ssta --tuned` prints one
  // convention for the untuned and the tuned Monte-Carlo columns.
  analytic::McTunedPeriod mc;
  EXPECT_EQ(mc.quantile(0.5), 0.0);  // empty sample
  mc.periods = {3.0, 1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mc.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(mc.quantile(0.25), 1.75);
  EXPECT_DOUBLE_EQ(mc.quantile(0.5), 2.5);
  EXPECT_DOUBLE_EQ(mc.quantile(1.0), 4.0);
}

}  // namespace
}  // namespace effitest
