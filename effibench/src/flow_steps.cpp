#include "flow_steps.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "parallel/deterministic_for.hpp"
#include "stats/conditional.hpp"

namespace effibench {

using namespace effitest;

Offline prepare_offline(const core::Problem& problem,
                        const core::FlowOptions& options, Tracer& tracer) {
  // Seed-fork order of the TunerService constructor: calibration, hold,
  // Monte-Carlo chip base.
  Offline off;
  off.options = options;
  stats::Rng rng(options.seed);
  if (off.options.designated_period <= 0.0) {
    const Tracer::Span span(tracer, "core.td_calibration");
    stats::Rng cal = rng.fork();
    off.options.designated_period = core::period_quantile(
        problem, 0.5, options.period_calibration_chips, cal);
  }
  stats::Rng hold_rng = rng.fork();

  const Tracer::Span prepare(tracer, "core.prepare");
  off.options.test.epsilon_ps = options.epsilon_override > 0.0
                                    ? options.epsilon_override
                                    : core::calibrated_epsilon(problem);

  // prepare_flow, prediction + slot-filling branch.
  const timing::CircuitModel& model = problem.model();
  const std::size_t np = model.num_pairs();
  core::GroupingOptions grouping = options.grouping;
  if (grouping.threads == 0) grouping.threads = options.threads;
  core::HoldBoundOptions hold = options.hold;
  if (hold.threads == 0) hold.threads = options.threads;
  core::BatchingOptions batching = options.batching;
  batching.optimal_coloring = false;

  auto art = std::make_shared<core::FlowArtifacts>();
  const std::vector<double> means = model.max_means();
  const std::vector<double> sigmas = model.max_sigmas();
  art->prior_lower.resize(np);
  art->prior_upper.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    art->prior_lower[p] = means[p] - 3.0 * sigmas[p];
    art->prior_upper[p] = means[p] + 3.0 * sigmas[p];
  }

  linalg::Matrix cov;
  {
    const Tracer::Span span(tracer, "timing.covariance");
    cov = model.max_covariance(options.threads);
  }
  {
    const Tracer::Span span(tracer, "core.grouping");
    art->selection = core::select_paths(cov, grouping);
  }
  art->tested = art->selection.tested;
  {
    const Tracer::Span span(tracer, "core.batching");
    std::vector<std::size_t> order;  // cluster-major, by mean in a group
    for (const core::PathGroup& g : art->selection.groups) {
      std::vector<std::size_t> sorted = g.selected;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [&](std::size_t a, std::size_t b) {
                         return means[a] < means[b];
                       });
      order.insert(order.end(), sorted.begin(), sorted.end());
    }
    art->batches = core::build_batches(problem, order, batching);
  }

  std::shared_ptr<const stats::PredictionGain> gain;
  if (options.fill_slots && art->tested.size() < np) {
    {
      const Tracer::Span span(tracer, "stats.gain");
      gain = stats::PredictionGain::compute(cov, art->tested, 1e-9);
    }
    const Tracer::Span span(tracer, "core.batching");
    const std::vector<double>& psigma = gain->posterior_sigma;
    std::vector<std::size_t> order(gain->predicted.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return psigma[a] > psigma[b];
    });
    std::vector<std::size_t> candidates;
    candidates.reserve(order.size());
    for (std::size_t k : order) candidates.push_back(gain->predicted[k]);
    const std::vector<std::size_t> inserted = core::fill_empty_slots(
        problem, art->batches, candidates, batching, means);
    if (!inserted.empty()) {
      art->tested.insert(art->tested.end(), inserted.begin(), inserted.end());
      std::sort(art->tested.begin(), art->tested.end());
      gain.reset();
    }
  }
  if (art->tested.size() < np) {
    if (gain == nullptr) {
      const Tracer::Span span(tracer, "stats.gain");
      gain = stats::PredictionGain::compute(cov, art->tested, 1e-9);
    }
    art->predictor.emplace(std::move(gain), means);
  }
  {
    const Tracer::Span span(tracer, "core.hold");
    art->hold = core::compute_hold_bounds(problem, hold_rng, hold);
  }
  off.artifacts = std::move(art);
  off.seed_base = rng.fork().engine()();
  return off;
}

namespace {

void reference_points(const core::Problem& problem, double td,
                      const core::ConfigOptions& config,
                      const timing::Chip& chip, DieResult& out) {
  const core::ConfigResult ideal =
      core::configure_ideal(problem, td, chip, config);
  out.pass_ideal = ideal.feasible &&
                   core::chip_passes(problem, chip,
                                     core::buffer_values(problem, ideal.steps),
                                     td);
  out.pass_untuned = core::chip_passes_untuned(problem, chip, td);
}

}  // namespace

DieResult tune_die(const core::TunerService& service, std::size_t c) {
  thread_local timing::SampleWorkspace ws;
  DieResult out;
  const auto t0 = Clock::now();
  stats::Rng rng(parallel::index_seed(service.monte_carlo_seed_base(), c));
  const timing::Chip chip = service.problem().model().sample_chip(rng, ws);
  core::SimulatedChip tester(service.problem(), chip);
  core::TuningSession session = service.begin_chip();
  session.drive(tester);
  out.report = session.take_report();
  out.seconds = seconds_since(t0);
  reference_points(service.problem(), service.designated_period(),
                   service.options().config, chip, out);
  return out;
}

DieResult tune_die_traced(const core::Problem& problem, const Offline& offline,
                          std::size_t c, Tracer& tracer) {
  thread_local timing::SampleWorkspace ws;
  const core::FlowArtifacts& art = *offline.artifacts;
  const core::FlowOptions& opts = offline.options;
  const double td = opts.designated_period;
  DieResult out;
  core::ChipReport& rep = out.report;
  const auto t0 = Clock::now();

  timing::Chip chip;
  {
    const Tracer::Span span(tracer, "timing.sample");
    stats::Rng rng(parallel::index_seed(offline.seed_base, c));
    chip = problem.model().sample_chip(rng, ws);
  }
  core::SimulatedChip tester(problem, chip);
  {
    const Tracer::Span span(tracer, "core.test");
    core::DelayTestMachine machine(problem, art.batches, art.prior_lower,
                                   art.prior_upper, art.hold, opts.test);
    while (!machine.done()) {
      const core::Stimulus& stimulus = machine.next_stimulus();
      machine.record_response(tester.apply(stimulus));
    }
    rep.test = machine.take_result();
  }
  rep.designated_period = td;
  if (art.predictor) {
    const Tracer::Span span(tracer, "core.predict");
    std::vector<double> lower(art.tested.size());
    std::vector<double> upper(art.tested.size());
    for (std::size_t t = 0; t < art.tested.size(); ++t) {
      lower[t] = rep.test.lower[art.tested[t]];
      upper[t] = rep.test.upper[art.tested[t]];
    }
    rep.bounds = art.predictor->predict(lower, upper);
  } else {
    rep.bounds.lower = rep.test.lower;
    rep.bounds.upper = rep.test.upper;
  }
  {
    const Tracer::Span span(tracer, "core.configure");
    rep.config = core::configure_buffers(problem, td, rep.bounds.lower,
                                         rep.bounds.upper, art.hold,
                                         opts.config);
  }
  if (rep.config.feasible) {
    const Tracer::Span span(tracer, "core.final_test");
    rep.passed = tester.final_test(td, rep.config.steps);
  } else {
    rep.passed = false;
  }
  out.seconds = seconds_since(t0);
  const Tracer::Span span(tracer, "core.reference");
  reference_points(problem, td, opts.config, chip, out);
  return out;
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  }
  template <typename T>
  void add_all(const std::vector<T>& v) {
    add(v.size());
    for (const T& x : v) add(x);
  }
};

}  // namespace

std::uint64_t digest(const DieResult& d) {
  const core::ChipReport& r = d.report;
  Fnv f;
  f.add_all(r.test.lower);
  f.add_all(r.test.upper);
  f.add(r.test.tested.size());
  for (bool t : r.test.tested) f.add(t);
  f.add(r.test.iterations);
  f.add(r.test.forced);
  f.add_all(r.test.final_steps);
  f.add_all(r.bounds.lower);
  f.add_all(r.bounds.upper);
  f.add(r.config.feasible);
  f.add_all(r.config.steps);
  f.add(r.config.xi);
  f.add(r.designated_period);
  f.add(r.passed.has_value() ? (*r.passed ? 1 : 0) : 2);
  f.add(d.pass_ideal);
  f.add(d.pass_untuned);
  return f.h;
}

void Tally::add(const DieResult& d) {
  const core::ChipReport& r = d.report;
  ++dies;
  iterations += r.test.iterations;
  stimuli += r.test.iterations + (r.config.feasible ? 1 : 0);
  forced += r.test.forced;
  if (!r.config.feasible) ++infeasible;
  if (r.passed.value_or(false)) ++pass_proposed;
  if (d.pass_ideal) ++pass_ideal;
  if (d.pass_untuned) ++pass_untuned;
}

core::FlowMetrics flow_metrics(const core::Problem& problem,
                               const core::FlowArtifacts& art,
                               const core::FlowOptions& options,
                               const Tally& tally) {
  // The arithmetic of run_flow, so equal tallies give equal doubles.
  core::FlowMetrics m;
  m.designated_period = options.designated_period;
  m.epsilon_ps = options.test.epsilon_ps;
  m.np = problem.model().num_pairs();
  m.npt = art.tested.size();
  m.nb = problem.num_buffers();
  m.num_groups = art.selection.groups.size();
  m.num_batches = art.batches.size();
  m.num_selected = art.selection.tested.size();
  std::size_t pathwise = 0;
  for (std::size_t p = 0; p < m.np; ++p) {
    pathwise += core::pathwise_iterations(art.prior_lower[p],
                                          art.prior_upper[p], m.epsilon_ps);
  }
  m.ta_pathwise = static_cast<double>(pathwise);
  m.tv_pathwise = m.np > 0 ? m.ta_pathwise / static_cast<double>(m.np) : 0.0;
  m.forced_resolutions = tally.forced;
  m.infeasible_configs = tally.infeasible;
  const auto n = static_cast<double>(tally.dies);
  m.ta = static_cast<double>(tally.iterations) / n;
  m.tv = m.npt > 0 ? m.ta / static_cast<double>(m.npt) : 0.0;
  m.ra = m.ta_pathwise > 0.0 ? (m.ta_pathwise - m.ta) / m.ta_pathwise * 100.0
                             : 0.0;
  m.rv = m.tv_pathwise > 0.0 ? (m.tv_pathwise - m.tv) / m.tv_pathwise * 100.0
                             : 0.0;
  m.yield_no_buffer = static_cast<double>(tally.pass_untuned) / n;
  m.yield_ideal = static_cast<double>(tally.pass_ideal) / n;
  m.yield_proposed = static_cast<double>(tally.pass_proposed) / n;
  m.yield_drop = m.yield_ideal - m.yield_proposed;
  return m;
}

bool same_metrics(const core::FlowMetrics& a, const core::FlowMetrics& b) {
  return a.np == b.np && a.npt == b.npt && a.nb == b.nb &&
         a.num_groups == b.num_groups && a.num_batches == b.num_batches &&
         a.num_selected == b.num_selected && a.epsilon_ps == b.epsilon_ps &&
         a.designated_period == b.designated_period && a.ta == b.ta &&
         a.tv == b.tv && a.ta_pathwise == b.ta_pathwise && a.ra == b.ra &&
         a.rv == b.rv && a.yield_no_buffer == b.yield_no_buffer &&
         a.yield_ideal == b.yield_ideal &&
         a.yield_proposed == b.yield_proposed &&
         a.yield_drop == b.yield_drop &&
         a.forced_resolutions == b.forced_resolutions &&
         a.infeasible_configs == b.infeasible_configs;
}

}  // namespace effibench
