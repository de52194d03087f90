// prep_campaign: design-side preparation. The eight Table-1 paper circuits
// are provisioned into one catalog (set-up); the measured passes run the
// Table-1 campaign over them through core::CampaignRunner — T_d
// calibration, the whole offline phase and a small chip loop per circuit,
// circuits fanned out over the worker threads — until the time budget is
// spent. An item is one whole campaign.
//
// Checks: every job's metrics are plausible; later passes reproduce the
// first; the smallest circuit's job equals a direct core::run_flow; in the
// traced run the call-by-call flow reproduces every job's metrics.

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "flow_steps.hpp"
#include "harness.hpp"
#include "netlist/generator.hpp"
#include "parallel/deterministic_for.hpp"
#include "provision.hpp"

namespace effibench {

using namespace effitest;

namespace {

bool plausible(const core::FlowMetrics& m) {
  const auto unit = [](double y) { return y >= 0.0 && y <= 1.0; };
  return m.np > 0 && m.npt > 0 && m.npt <= m.np && m.ta > 0.0 &&
         m.ta < m.ta_pathwise && m.ra > 0.0 && m.ra < 100.0 &&
         unit(m.yield_no_buffer) && unit(m.yield_ideal) &&
         unit(m.yield_proposed) && m.yield_proposed <= m.yield_ideal;
}

}  // namespace

Outcome run_prep_campaign(const Config& cfg, Tracer& tracer) {
  // Largest circuits first, so the two np ~ 3,000 jobs start at once
  // instead of whenever a worker frees up: the campaign's critical path,
  // and so its wall time, stops depending on scheduling luck.
  std::vector<std::string> names;
  if (cfg.smoke) {
    names = {"s13207", "s9234"};
  } else {
    std::vector<netlist::GeneratorSpec> specs =
        netlist::paper_benchmark_specs();
    std::stable_sort(specs.begin(), specs.end(), [](const auto& a,
                                                    const auto& b) {
      return a.num_critical_paths > b.num_critical_paths;
    });
    for (const netlist::GeneratorSpec& s : specs) names.push_back(s.name);
  }
  core::CampaignOptions copts;
  copts.flow.chips = cfg.smoke ? 20 : 200;
  copts.flow.seed = cfg.seed;
  copts.threads = cfg.threads;
  const std::vector<core::CampaignJob> jobs =
      core::CampaignRunner::cross(names, {});

  std::vector<double> setup_times;
  Provisioned prov;
  for (std::size_t r = 0; r < cfg.setup_reps; ++r) {
    prov = Provisioned{};
    const auto t0 = Clock::now();
    prov = provision(names, cfg.threads);
    setup_times.push_back(seconds_since(t0));
  }
  copts.catalog = prov.catalog;
  const core::CampaignRunner runner(copts);

  Outcome out;
  core::CampaignResult first;
  std::vector<double> pass_times;
  std::vector<double> job_times;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    core::CampaignResult result = runner.run(jobs);
    pass_times.push_back(seconds_since(t0));
    for (const core::CampaignJobResult& j : result.jobs) {
      job_times.push_back(j.seconds);
    }
    if (pass_times.size() == 1) {
      first = std::move(result);
      if (cfg.corrupt) first.jobs[0].metrics.ta += 1.0;
      continue;
    }
    std::size_t differ = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      differ += same_metrics(result.jobs[i].metrics, first.jobs[i].metrics)
                    ? 0
                    : 1;
    }
    out.check(jobs.size(), differ,
              std::to_string(differ) + " job(s) differ from the first pass");
  } while (!cfg.trace && seconds_since(start) < cfg.seconds);

  std::size_t implausible = 0;
  for (const core::CampaignJobResult& j : first.jobs) {
    implausible += plausible(j.metrics) ? 0 : 1;
  }
  out.check(jobs.size(), implausible,
            std::to_string(implausible) + " job(s) with implausible metrics");

  core::FlowOptions direct_opts = copts.flow;
  direct_opts.threads = cfg.threads;
  const core::FlowMetrics direct =
      core::run_flow(prov.circuits.back()->problem, direct_opts).metrics;
  out.check(1, same_metrics(direct, first.jobs.back().metrics) ? 0 : 1,
            names.back() +
                ": campaign job differs from a direct core::run_flow");

  double ra_sum = 0.0;
  double loss_sum = 0.0;
  double ta_sum = 0.0;
  for (const core::CampaignJobResult& j : first.jobs) {
    ra_sum += j.metrics.ra;
    loss_sum += j.metrics.yield_drop * 100.0;
    ta_sum += j.metrics.ta;
  }
  const auto n = static_cast<double>(jobs.size());
  const double setup_s = median(setup_times);
  const double campaign_s = median(pass_times);
  // The user waits for the whole campaign, and single job times swing
  // with which jobs happen to share the cores: an item is one campaign.
  add_e2e(out, setup_s, 1.0 / campaign_s, pass_times);
  out.report = {
      {"setup_s", setup_s, "s"},
      {"campaign_s", campaign_s, "s"},
      {"jobs_per_s", n / campaign_s, "1/s"},
      {"job_p50_ms", quantile(job_times, 0.50) * 1e3, "ms"},
      {"tester_iters_per_chip", ta_sum / n, "iterations"},
      {"iter_reduction_pct", ra_sum / n, "%"},
      {"yield_loss_pct", loss_sum / n, "%"},
      {"campaigns", static_cast<double>(pass_times.size()), "count"},
  };
  if (!cfg.trace) return out;

  // Traced run: the same set-up and campaign, call by call.
  const double untraced_wall = setup_times.back() + pass_times.front();
  const auto w0 = Clock::now();
  const std::vector<Circuit> circuits =
      provision_traced(names, cfg.threads, tracer);
  std::vector<core::FlowMetrics> metrics(names.size());
  std::vector<Offline> offline(names.size());
  std::vector<Tally> tallies(names.size());
  double die_busy = 0.0;
  double loop_capacity = 0.0;
  std::mutex busy_mutex;
  {
    const Tracer::Span fan_out(tracer, "parallel.for");
    parallel::ForOptions fo;
    fo.threads = cfg.threads;
    parallel::deterministic_for(names.size(), fo, [&](std::size_t i) {
      const core::Problem& problem = circuits[i]->problem;
      core::FlowOptions opts = copts.flow;
      opts.threads = cfg.threads;
      offline[i] = prepare_offline(problem, opts, tracer);
      std::vector<DieResult> dies(opts.chips);
      const auto l0 = Clock::now();
      {
        const Tracer::Span span(tracer, "parallel.for");
        parallel::deterministic_for(opts.chips, fo, [&](std::size_t c) {
          dies[c] = tune_die_traced(problem, offline[i], c, tracer);
        });
      }
      const double loop_wall = seconds_since(l0);
      double busy = 0.0;
      for (const DieResult& d : dies) {
        tallies[i].add(d);
        busy += d.seconds;
      }
      metrics[i] = flow_metrics(problem, *offline[i].artifacts,
                                offline[i].options, tallies[i]);
      const std::lock_guard<std::mutex> lock(busy_mutex);
      die_busy += busy;
      loop_capacity += static_cast<double>(cfg.threads) * loop_wall;
    });
  }
  const auto w1 = Clock::now();
  std::size_t differ = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    differ += same_metrics(metrics[i], first.jobs[i].metrics) ? 0 : 1;
  }
  out.check(names.size(), differ,
            std::to_string(differ) +
                " job(s): call-by-call metrics differ from CampaignRunner");

  const auto per_die_us = [&](const char* name) {
    const auto [sum, count] = tracer.total(name);
    return count > 0 ? sum / static_cast<double>(count) * 1e6 : 0.0;
  };
  const auto total_s = [&](const char* name) {
    return tracer.total(name).first;
  };
  Tally all;
  double groups = 0.0;
  double batches = 0.0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    all.dies += tallies[i].dies;
    all.stimuli += tallies[i].stimuli;
    all.infeasible += tallies[i].infeasible;
    const core::FlowArtifacts& art = *offline[i].artifacts;
    groups += static_cast<double>(art.selection.groups.size());
    batches += static_cast<double>(art.batches.size());
  }
  add_layers(
      out, tracer, w0, w1, untraced_wall,
      {
          {"scenario.resolve_s", total_s("scenario.resolve"), "s"},
          {"netlist.generate_s", total_s("netlist.generate"), "s"},
          {"timing.model_s", total_s("timing.model"), "s"},
          {"core.td_calibration_s", total_s("core.td_calibration"), "s"},
          {"core.td_calibration_dies",
           n * static_cast<double>(copts.flow.period_calibration_chips),
           "count"},
          {"timing.covariance_s", total_s("timing.covariance"), "s"},
          {"core.grouping_s", total_s("core.grouping"), "s"},
          {"core.groups", groups, "count"},
          {"core.batching_s", total_s("core.batching"), "s"},
          {"core.batches", batches, "count"},
          {"stats.gain_s", total_s("stats.gain"), "s"},
          {"core.hold_s", total_s("core.hold"), "s"},
          {"timing.sample_us", per_die_us("timing.sample"), "us"},
          {"core.test_us", per_die_us("core.test"), "us"},
          {"core.predict_us", per_die_us("core.predict"), "us"},
          {"core.configure_us", per_die_us("core.configure"), "us"},
          {"core.final_test_us", per_die_us("core.final_test"), "us"},
          {"core.reference_us", per_die_us("core.reference"), "us"},
          {"core.stimuli_per_chip",
           static_cast<double>(all.stimuli) / static_cast<double>(all.dies),
           "count"},
          {"core.infeasible_chips", static_cast<double>(all.infeasible),
           "count"},
          {"core.iter_reduction_pct", ra_sum / n, "%"},
          {"core.yield_loss_pct", loss_sum / n, "%"},
          {"parallel.busy_pct", die_busy / loop_capacity * 100.0, "%"},
      });
  return out;
}

}  // namespace effibench
