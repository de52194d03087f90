// analytic_signoff: design sign-off with the analytic post-tuning engine.
// The bench_analytic circuit set (three full-size ISCAS89 circuits and a
// 10k-gate scaled family) is provisioned once (set-up); each measured pass
// runs analytic::analyze_tuned_period plus the exact per-die
// analytic::mc_tuned_period reference on every circuit, until the time
// budget is spent. An item is one circuit's engine + reference.
//
// Checks: the engine stays within the DESIGN.md §16 tolerances of the
// reference (tuned mean <= 2%, sigma <= 15%); later passes reproduce the
// first; in the traced run the per-die decomposition (sample_chip +
// min_feasible_period) reproduces mc_tuned_period's periods bit for bit.

#include <cmath>
#include <string>
#include <vector>

#include "analytic/engine.hpp"
#include "harness.hpp"
#include "parallel/deterministic_for.hpp"
#include "provision.hpp"

namespace effibench {

using namespace effitest;

namespace {

struct Signoff {
  double tuned_mean = 0.0;
  double tuned_sigma = 0.0;
  std::size_t candidates = 0;
  analytic::McTunedPeriod mc;
};

bool same(const Signoff& a, const Signoff& b) {
  return a.tuned_mean == b.tuned_mean && a.tuned_sigma == b.tuned_sigma &&
         a.candidates == b.candidates && a.mc.mean == b.mc.mean &&
         a.mc.sigma == b.mc.sigma;
}

double err_pct(double engine, double reference) {
  return std::fabs(engine - reference) / reference * 100.0;
}

}  // namespace

Outcome run_analytic_signoff(const Config& cfg, Tracer& tracer) {
  const std::vector<std::string> names =
      cfg.smoke ? std::vector<std::string>{"s9234", "s13207@x0.5"}
                : std::vector<std::string>{"s35932",       "s38417",
                                           "s38584",       "s9234@x1.8",
                                           "s13207@x1.25", "s15850@x1.02"};
  analytic::McTunedOptions mopts;
  mopts.chips = cfg.smoke ? 200 : 2000;
  mopts.seed = cfg.seed;
  mopts.threads = cfg.threads;

  std::vector<double> setup_times;
  Provisioned prov;
  for (std::size_t r = 0; r < cfg.setup_reps; ++r) {
    prov = Provisioned{};
    const auto t0 = Clock::now();
    prov = provision(names, cfg.threads);
    setup_times.push_back(seconds_since(t0));
  }

  Outcome out;
  std::vector<Signoff> first(names.size());
  std::vector<double> pass_times;
  std::vector<double> item_times;
  double engine_s = 0.0;
  const auto start = Clock::now();
  do {
    const auto p0 = Clock::now();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const core::Problem& problem = prov.circuits[i]->problem;
      Signoff s;
      const auto t0 = Clock::now();
      const analytic::TunedPeriodAnalysis a =
          analytic::analyze_tuned_period(problem);
      const double te = seconds_since(t0);
      s.mc = analytic::mc_tuned_period(problem, mopts);
      item_times.push_back(seconds_since(t0));
      s.tuned_mean = a.tuned.mean;
      s.tuned_sigma = a.tuned.sigma();
      s.candidates = a.candidates.size();
      if (pass_times.empty()) {
        engine_s += te;
        if (cfg.corrupt && i == 0) s.mc.mean *= 1.1;
        first[i] = std::move(s);
      } else {
        out.check(1, same(s, first[i]) ? 0 : 1,
                  names[i] + ": pass differs from the first pass");
      }
    }
    pass_times.push_back(seconds_since(p0));
  } while (!cfg.trace && seconds_since(start) < cfg.seconds);

  double worst_mean = 0.0;
  double worst_sigma = 0.0;
  std::size_t candidates = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const double em = err_pct(first[i].tuned_mean, first[i].mc.mean);
    const double es = err_pct(first[i].tuned_sigma, first[i].mc.sigma);
    out.check(1, em <= 2.0 && es <= 15.0 ? 0 : 1,
              names[i] + ": engine outside tolerance (mean " +
                  std::to_string(em) + "%, sigma " + std::to_string(es) +
                  "%)");
    worst_mean = std::max(worst_mean, em);
    worst_sigma = std::max(worst_sigma, es);
    candidates += first[i].candidates;
  }

  const auto n = static_cast<double>(names.size());
  const double setup_s = median(setup_times);
  const double signoff_s = median(pass_times);
  add_e2e(out, setup_s, n / signoff_s, item_times);
  out.report = {
      {"setup_s", setup_s, "s"},
      {"signoff_s", signoff_s, "s"},
      {"circuits_per_s", n / signoff_s, "1/s"},
      {"engine_s", engine_s, "s"},
      {"tuned_mean_err_pct", worst_mean, "%"},
      {"tuned_sigma_err_pct", worst_sigma, "%"},
      {"candidates", static_cast<double>(candidates), "count"},
      {"passes", static_cast<double>(pass_times.size()), "count"},
  };
  if (!cfg.trace) return out;

  // Traced run: the same set-up and pass, the reference die by die.
  const double untraced_wall = setup_times.back() + pass_times.front();
  const auto w0 = Clock::now();
  const std::vector<Circuit> circuits =
      provision_traced(names, cfg.threads, tracer);
  std::size_t differ = 0;
  double busy = 0.0;
  double capacity = 0.0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const core::Problem& problem = circuits[i]->problem;
    Signoff s;
    {
      const Tracer::Span span(tracer, "analytic.engine");
      const analytic::TunedPeriodAnalysis a =
          analytic::analyze_tuned_period(problem);
      s.tuned_mean = a.tuned.mean;
      s.tuned_sigma = a.tuned.sigma();
      s.candidates = a.candidates.size();
    }
    std::vector<double> periods(mopts.chips);
    std::vector<double> die_seconds(mopts.chips);
    const auto l0 = Clock::now();
    {
      const Tracer::Span span(tracer, "parallel.for");
      parallel::ForOptions fo;
      fo.threads = cfg.threads;
      parallel::deterministic_for(mopts.chips, fo, [&](std::size_t c) {
        const auto t0 = Clock::now();
        timing::SampleWorkspace ws;
        timing::Chip chip;
        {
          const Tracer::Span sample(tracer, "timing.sample");
          stats::Rng rng(parallel::index_seed(mopts.seed, c));
          chip = problem.model().sample_chip(rng, ws);
        }
        {
          const Tracer::Span die(tracer, "analytic.mc_die");
          periods[c] = analytic::min_feasible_period(problem, chip);
        }
        die_seconds[c] = seconds_since(t0);
      });
    }
    capacity += static_cast<double>(cfg.threads) * seconds_since(l0);
    for (const double d : die_seconds) busy += d;
    const bool ok = periods == first[i].mc.periods &&
                    s.tuned_mean == first[i].tuned_mean &&
                    s.tuned_sigma == first[i].tuned_sigma &&
                    s.candidates == first[i].candidates;
    differ += ok ? 0 : 1;
  }
  const auto w1 = Clock::now();
  out.check(names.size(), differ,
            std::to_string(differ) +
                " circuit(s): per-die decomposition differs from "
                "mc_tuned_period");

  const auto [die_sum, die_count] = tracer.total("analytic.mc_die");
  add_layers(
      out, tracer, w0, w1, untraced_wall,
      {
          {"scenario.resolve_s", tracer.total("scenario.resolve").first, "s"},
          {"netlist.generate_s", tracer.total("netlist.generate").first, "s"},
          {"timing.model_s", tracer.total("timing.model").first, "s"},
          {"timing.sample_us",
           tracer.total("timing.sample").first /
               static_cast<double>(die_count) * 1e6,
           "us"},
          {"analytic.engine_s", tracer.total("analytic.engine").first, "s"},
          {"analytic.candidates", static_cast<double>(candidates), "count"},
          {"analytic.mc_die_us",
           die_sum / static_cast<double>(die_count) * 1e6, "us"},
          {"analytic.tuned_mean_err_pct", worst_mean, "%"},
          {"analytic.tuned_sigma_err_pct", worst_sigma, "%"},
          {"parallel.busy_pct", busy / capacity * 100.0, "%"},
      });
  return out;
}

}  // namespace effibench
