// tune_stream: the production tester floor. One circuit (s38584) is
// provisioned and prepared once through core::TunerService (set-up), then
// the paper's 10,000-die population streams through TuningSessions on the
// worker threads, yield comparison points included, pass after pass until
// the time budget is spent. An item is one die.
//
// Checks: every later pass reproduces the first pass die for die; the
// first dies' aggregate ta/ra/yields equal core::run_flow for the same
// seed; in the traced run the call-by-call decomposition reproduces the
// TuningSession::drive results die for die.

#include <memory>
#include <string>
#include <vector>

#include "flow_steps.hpp"
#include "harness.hpp"
#include "parallel/deterministic_for.hpp"
#include "provision.hpp"

namespace effibench {

using namespace effitest;

namespace {

struct Stream {
  std::vector<std::uint64_t> digests;  ///< first pass, per die
  Tally tally;                         ///< first pass
  Tally check_tally;                   ///< dies [0, check_dies)
  std::vector<double> die_seconds;
  std::vector<double> block_rates;  ///< dies/s per block
  double wall = 0.0;                ///< summed block wall time
  double busy = 0.0;                ///< summed per-die host time
  std::size_t repeats = 0;          ///< dies re-tuned in later passes
  std::size_t repeat_mismatches = 0;
};

/// Stream dies [0, population) in blocks of `block` for `budget`
/// seconds (at least one full pass). `tune(c)` tunes die c.
template <typename Tune>
Stream stream(std::size_t population, std::size_t block, std::size_t threads,
              double budget, std::size_t check_dies, bool corrupt,
              Tracer& tracer, Tune&& tune) {
  Stream s;
  s.digests.resize(population);
  const auto start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    for (std::size_t b0 = 0; b0 < population; b0 += block) {
      if (pass > 0 && seconds_since(start) >= budget) return s;
      const std::size_t n = std::min(block, population - b0);
      std::vector<DieResult> res(n);
      const auto t0 = Clock::now();
      {
        const Tracer::Span span(tracer, "parallel.for");
        parallel::ForOptions fo;
        fo.threads = threads;
        parallel::deterministic_for(
            n, fo, [&](std::size_t i) { res[i] = tune(b0 + i); });
      }
      const double wall = seconds_since(t0);
      s.wall += wall;
      s.block_rates.push_back(static_cast<double>(n) / wall);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = b0 + i;
        if (corrupt && pass == 0 && c == 0) ++res[i].report.test.iterations;
        s.die_seconds.push_back(res[i].seconds);
        s.busy += res[i].seconds;
        const std::uint64_t d = digest(res[i]);
        if (pass == 0) {
          s.digests[c] = d;
          s.tally.add(res[i]);
          if (c < check_dies) s.check_tally.add(res[i]);
        } else {
          ++s.repeats;
          if (d != s.digests[c]) ++s.repeat_mismatches;
        }
      }
    }
    if (seconds_since(start) >= budget) return s;
  }
}

}  // namespace

Outcome run_tune_stream(const Config& cfg, Tracer& tracer) {
  const std::string circuit = cfg.smoke ? "s9234" : "s38584";
  const std::size_t population = cfg.smoke ? 48 : 10000;
  const std::size_t block = cfg.smoke ? 16 : 250;
  const std::size_t check_dies = cfg.smoke ? 48 : 1000;
  core::FlowOptions fopts;
  fopts.seed = cfg.seed;
  fopts.threads = cfg.threads;

  // Set-up: provision + TunerService (T_d calibration, prepare_flow).
  std::vector<double> setup_times;
  Provisioned prov;
  std::unique_ptr<core::TunerService> service;
  for (std::size_t r = 0; r < cfg.setup_reps; ++r) {
    service.reset();  // tear the last set-up down outside the timing
    prov = Provisioned{};
    const auto t0 = Clock::now();
    prov = provision({circuit}, cfg.threads);
    service = std::make_unique<core::TunerService>(prov.circuits[0], fopts);
    setup_times.push_back(seconds_since(t0));
  }
  const core::Problem& problem = service->problem();
  const double budget = cfg.trace ? 0.0 : cfg.seconds;

  Tracer off(false);
  const auto s0 = Clock::now();
  Stream s = stream(population, block, cfg.threads, budget, check_dies,
                    cfg.corrupt, off,
                    [&](std::size_t c) { return tune_die(*service, c); });
  const double stream_s = seconds_since(s0);

  Outcome out;
  out.check(s.repeats, s.repeat_mismatches,
            std::to_string(s.repeat_mismatches) +
                " re-tuned die(s) differ from the first pass");

  // The first dies must aggregate exactly like core::run_flow.
  core::FlowOptions check_opts = fopts;
  check_opts.chips = check_dies;
  const core::FlowMetrics direct =
      core::run_flow(problem, check_opts, service->shared_artifacts()).metrics;
  const core::FlowMetrics streamed = flow_metrics(
      problem, service->artifacts(), service->options(), s.check_tally);
  out.check(check_dies, same_metrics(direct, streamed) ? 0 : check_dies,
            "ta/ra/yields of the first dies differ from core::run_flow");

  const core::FlowMetrics m = flow_metrics(problem, service->artifacts(),
                                           service->options(), s.tally);
  const double setup_s = median(setup_times);
  const double chips_per_s = median(s.block_rates);
  add_e2e(out, setup_s, chips_per_s, s.die_seconds);
  out.report = {
      {"setup_s", setup_s, "s"},
      {"chips_per_s", chips_per_s, "1/s"},
      {"chip_p50_ms", quantile(s.die_seconds, 0.50) * 1e3, "ms"},
      {"chip_p99_ms", quantile(s.die_seconds, 0.99) * 1e3, "ms"},
      {"tester_iters_per_chip", m.ta, "iterations"},
      {"iter_reduction_pct", m.ra, "%"},
      {"yield_loss_pct", m.yield_drop * 100.0, "%"},
      {"dies_tuned", static_cast<double>(s.die_seconds.size()), "count"},
  };
  if (!cfg.trace) return out;

  // Traced run: the same set-up and pass again, call by call.
  const double untraced_wall = setup_times.back() + stream_s;
  const auto w0 = Clock::now();
  const std::vector<Circuit> traced =
      provision_traced({circuit}, cfg.threads, tracer);
  const core::Problem& tproblem = traced[0]->problem;
  const Offline offline = prepare_offline(tproblem, fopts, tracer);
  Stream t = stream(population, block, cfg.threads, 0.0, 0, false, tracer,
                    [&](std::size_t c) {
                      return tune_die_traced(tproblem, offline, c, tracer);
                    });
  const auto w1 = Clock::now();
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < population; ++c) {
    mismatches += t.digests[c] != s.digests[c] ? 1 : 0;
  }
  out.check(population, mismatches,
            std::to_string(mismatches) +
                " die(s): call-by-call results differ from "
                "TuningSession::drive");

  const auto per_die_us = [&](const char* name) {
    const auto [sum, n] = tracer.total(name);
    return n > 0 ? sum / static_cast<double>(n) * 1e6 : 0.0;
  };
  const auto total_s = [&](const char* name) {
    return tracer.total(name).first;
  };
  const auto dies = static_cast<double>(t.tally.dies);
  add_layers(
      out, tracer, w0, w1, untraced_wall,
      {
          {"scenario.resolve_s", total_s("scenario.resolve"), "s"},
          {"netlist.generate_s", total_s("netlist.generate"), "s"},
          {"timing.model_s", total_s("timing.model"), "s"},
          {"core.td_calibration_s", total_s("core.td_calibration"), "s"},
          {"core.td_calibration_dies",
           static_cast<double>(fopts.period_calibration_chips), "count"},
          {"timing.covariance_s", total_s("timing.covariance"), "s"},
          {"core.grouping_s", total_s("core.grouping"), "s"},
          {"core.groups",
           static_cast<double>(offline.artifacts->selection.groups.size()),
           "count"},
          {"core.batching_s", total_s("core.batching"), "s"},
          {"core.batches",
           static_cast<double>(offline.artifacts->batches.size()), "count"},
          {"stats.gain_s", total_s("stats.gain"), "s"},
          {"core.hold_s", total_s("core.hold"), "s"},
          {"timing.sample_us", per_die_us("timing.sample"), "us"},
          {"core.test_us", per_die_us("core.test"), "us"},
          {"core.predict_us", per_die_us("core.predict"), "us"},
          {"core.configure_us", per_die_us("core.configure"), "us"},
          {"core.final_test_us", per_die_us("core.final_test"), "us"},
          {"core.reference_us", per_die_us("core.reference"), "us"},
          {"core.stimuli_per_chip",
           static_cast<double>(t.tally.stimuli) / dies, "count"},
          {"core.infeasible_chips", static_cast<double>(t.tally.infeasible),
           "count"},
          {"core.iter_reduction_pct", m.ra, "%"},
          {"core.yield_loss_pct", m.yield_drop * 100.0, "%"},
          {"parallel.busy_pct",
           t.busy / (static_cast<double>(cfg.threads) * t.wall) * 100.0, "%"},
      });
  return out;
}

}  // namespace effibench
