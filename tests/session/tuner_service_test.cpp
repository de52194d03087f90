// TunerService / TuningSession contract tests: a chip is tuned purely
// through the ChipUnderTest boundary, sessions are pure functions of their
// responses, concurrent sessions share one service's artifacts without
// interference, and a Monte-Carlo driver over the service reproduces
// run_flow exactly (the golden lock in integration/ pins the absolute
// values; these tests pin the equivalences).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/flow.hpp"
#include "core/tuner_service.hpp"
#include "netlist/generator.hpp"
#include "parallel/deterministic_for.hpp"
#include "timing/model.hpp"

namespace effitest::core {
namespace {

struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  Problem problem;

  explicit Fixture(std::uint64_t seed = 21)
      : circuit(netlist::generate_circuit([&] {
          netlist::GeneratorSpec s;
          s.num_flip_flops = 70;
          s.num_gates = 900;
          s.num_buffers = 2;
          s.num_critical_paths = 20;
          s.seed = seed;
          return s;
        }())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}
};

void expect_reports_equal(const ChipReport& a, const ChipReport& b) {
  EXPECT_EQ(a.test.iterations, b.test.iterations);
  EXPECT_EQ(a.test.forced, b.test.forced);
  EXPECT_EQ(a.test.tested, b.test.tested);
  ASSERT_EQ(a.test.lower.size(), b.test.lower.size());
  for (std::size_t p = 0; p < a.test.lower.size(); ++p) {
    EXPECT_EQ(a.test.lower[p], b.test.lower[p]) << "lower " << p;
    EXPECT_EQ(a.test.upper[p], b.test.upper[p]) << "upper " << p;
  }
  ASSERT_EQ(a.bounds.lower.size(), b.bounds.lower.size());
  for (std::size_t p = 0; p < a.bounds.lower.size(); ++p) {
    EXPECT_EQ(a.bounds.lower[p], b.bounds.lower[p]) << "cfg lower " << p;
    EXPECT_EQ(a.bounds.upper[p], b.bounds.upper[p]) << "cfg upper " << p;
  }
  EXPECT_EQ(a.config.feasible, b.config.feasible);
  EXPECT_EQ(a.config.steps, b.config.steps);
  EXPECT_EQ(a.config.xi, b.config.xi);
  EXPECT_EQ(a.test.final_steps, b.test.final_steps);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.designated_period, b.designated_period);
}

TEST(TuningSession, StateMachineMatchesDrive) {
  // Driving the session by hand through next_stimulus/record_response (the
  // protocol shape) must equal the convenience drive() loop exactly.
  Fixture f;
  FlowOptions opts;
  opts.seed = 99;
  const TunerService service(f.problem, opts);

  stats::Rng rng(parallel::index_seed(service.monte_carlo_seed_base(), 0));
  const timing::Chip die = f.model.sample_chip(rng);
  SimulatedChip tester(f.problem, die);

  TuningSession driven = service.begin_chip();
  driven.drive(tester);

  TuningSession manual = service.begin_chip();
  std::size_t stimuli = 0;
  while (manual.phase() != SessionPhase::kDone) {
    const Stimulus& s = manual.next_stimulus();
    // next_stimulus is idempotent until answered.
    const Stimulus& again = manual.next_stimulus();
    ASSERT_EQ(s.period, again.period);
    ASSERT_EQ(s.armed, again.armed);
    ++stimuli;
    if (manual.phase() == SessionPhase::kTest) {
      ASSERT_FALSE(s.armed.empty());
      manual.record_response(tester.apply(s));
    } else {
      ASSERT_TRUE(s.armed.empty());  // final go/no-go is one bit
      manual.record_final(tester.final_test(s.period, s.steps));
    }
  }
  // One stimulus per tester iteration, plus the final go/no-go when the
  // configuration was feasible (an infeasible chip is rejected untested).
  EXPECT_EQ(stimuli, driven.report().test.iterations +
                         (driven.report().config.feasible ? 1 : 0));
  expect_reports_equal(manual.report(), driven.report());
}

TEST(TuningSession, MonteCarloDriverMatchesRunFlow) {
  // run_flow is now a thin driver over the service; re-deriving its tallies
  // by hand from per-chip reports must reproduce the FlowMetrics exactly.
  Fixture f;
  FlowOptions opts;
  opts.chips = 24;
  opts.seed = 4242;
  const FlowResult flow = run_flow(f.problem, opts);

  const TunerService service(f.problem, opts);
  EXPECT_EQ(service.designated_period(), flow.metrics.designated_period);
  EXPECT_EQ(service.test_options().epsilon_ps, flow.metrics.epsilon_ps);

  std::size_t iterations = 0, infeasible = 0, passed = 0;
  for (std::size_t c = 0; c < opts.chips; ++c) {
    stats::Rng rng(parallel::index_seed(service.monte_carlo_seed_base(), c));
    const timing::Chip die = f.model.sample_chip(rng);
    SimulatedChip tester(f.problem, die);
    TuningSession session = service.begin_chip();
    session.drive(tester);
    const ChipReport& report = session.report();
    iterations += report.test.iterations;
    if (!report.config.feasible) ++infeasible;
    if (report.passed.value_or(false)) ++passed;
  }
  const double n = static_cast<double>(opts.chips);
  EXPECT_EQ(static_cast<double>(iterations) / n, flow.metrics.ta);
  EXPECT_EQ(infeasible, flow.metrics.infeasible_configs);
  EXPECT_EQ(static_cast<double>(passed) / n, flow.metrics.yield_proposed);
}

TEST(TuningSession, ConcurrentSessionsShareArtifactsBitIdentically) {
  // One service, many sessions on the deterministic pool: every worker
  // count must produce the same reports as the serial loop (this test also
  // runs under the TSan CI job via the `session` label).
  Fixture f;
  FlowOptions opts;
  opts.seed = 7;
  const TunerService service(f.problem, opts);
  const std::uint64_t base = service.monte_carlo_seed_base();
  constexpr std::size_t kChips = 16;

  const auto tune_all = [&](std::size_t threads) {
    std::vector<ChipReport> reports(kChips);
    parallel::ForOptions fopts;
    fopts.threads = threads;
    parallel::deterministic_for(
        kChips, fopts, base, [&](std::size_t c, stats::Rng& rng) {
          thread_local timing::SampleWorkspace workspace;
          const timing::Chip die = f.model.sample_chip(rng, workspace);
          SimulatedChip tester(f.problem, die);
          TuningSession session = service.begin_chip();
          session.drive(tester);
          reports[c] = session.take_report();
        });
    return reports;
  };

  const std::vector<ChipReport> serial = tune_all(1);
  const std::vector<ChipReport> parallel4 = tune_all(4);
  const std::vector<ChipReport> pool = tune_all(0);
  for (std::size_t c = 0; c < kChips; ++c) {
    expect_reports_equal(serial[c], parallel4[c]);
    expect_reports_equal(serial[c], pool[c]);
  }
  // The artifacts really are shared, not copied per session: live
  // sessions co-own the service's one object...
  {
    TuningSession s1 = service.begin_chip();
    TuningSession s2 = service.begin_chip();
    EXPECT_EQ(service.shared_artifacts().use_count(), 3);
  }
  // ... and release it on completion.
  EXPECT_EQ(service.shared_artifacts().use_count(), 1);
}

TEST(TuningSession, FinalGoNoGoMatchesChipPasses) {
  // SimulatedChip::final_test is the production pass/fail oracle.
  Fixture f;
  FlowOptions opts;
  opts.seed = 77;
  const TunerService service(f.problem, opts);
  stats::Rng rng(parallel::index_seed(service.monte_carlo_seed_base(), 1));
  const timing::Chip die = f.model.sample_chip(rng);
  SimulatedChip tester(f.problem, die);
  TuningSession session = service.begin_chip();
  session.drive(tester);
  const ChipReport& report = session.report();
  ASSERT_TRUE(report.passed.has_value());
  if (report.config.feasible) {
    EXPECT_EQ(*report.passed,
              chip_passes(f.problem, die,
                          buffer_values(f.problem, report.config.steps),
                          service.designated_period()));
  } else {
    EXPECT_FALSE(*report.passed);
  }
}

TEST(TuningSession, ReuseServiceMatchesFreshService) {
  // Adopting prepared artifacts (the T_d-sweep pattern) yields the same
  // sessions as preparing from scratch at the same seed.
  Fixture f;
  FlowOptions opts;
  opts.seed = 15;
  const TunerService fresh(f.problem, opts);
  const TunerService aliased(f.problem, opts, fresh.shared_artifacts());
  EXPECT_EQ(fresh.monte_carlo_seed_base(), aliased.monte_carlo_seed_base());

  stats::Rng rng(parallel::index_seed(fresh.monte_carlo_seed_base(), 5));
  const timing::Chip die = f.model.sample_chip(rng);
  SimulatedChip tester(f.problem, die);
  TuningSession a = fresh.begin_chip();
  a.drive(tester);
  TuningSession b = aliased.begin_chip();
  b.drive(tester);
  expect_reports_equal(a.report(), b.report());
  // The whole artifact object is aliased, not copied (the campaign fast
  // path).
  EXPECT_EQ(aliased.shared_artifacts().get(), fresh.shared_artifacts().get());
}

TEST(TuningSession, MisusedProtocolThrows) {
  Fixture f;
  FlowOptions opts;
  const TunerService service(f.problem, opts);
  TuningSession session = service.begin_chip();
  ASSERT_EQ(session.phase(), SessionPhase::kTest);
  EXPECT_THROW(session.record_final(true), std::logic_error);
  EXPECT_THROW((void)session.report(), std::logic_error);
  const Stimulus& s = session.next_stimulus();
  // Wrong response width.
  EXPECT_THROW(
      session.record_response(std::vector<bool>(s.armed.size() + 1, true)),
      std::invalid_argument);
}

}  // namespace
}  // namespace effitest::core
