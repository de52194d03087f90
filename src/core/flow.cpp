#include "core/flow.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "core/tuner_service.hpp"
#include "parallel/deterministic_for.hpp"
#include "stats/distributions.hpp"

namespace effitest::core {

double calibrated_epsilon(const Problem& problem) {
  std::vector<double> sigmas = problem.model().max_sigmas();
  if (sigmas.empty()) return 0.5;
  const double med = stats::quantile(std::move(sigmas), 0.5);
  // Path-wise bisection of a 6-sigma range then takes ceil(log2(6s/eps))
  // ~ 8.5 iterations, the regime of Table 1's t'v column.
  return 6.0 * med / std::pow(2.0, 8.5);
}

FlowArtifacts prepare_flow(const Problem& problem, const FlowOptions& options,
                           stats::Rng& rng) {
  const timing::CircuitModel& model = problem.model();
  const std::size_t np = model.num_pairs();
  FlowArtifacts art;

  // Grouping/hold thread knobs of 0 inherit the flow-level setting (which
  // may itself be 0 = pool width). Purely a scheduling choice: both stages
  // produce bit-identical results for any worker count.
  GroupingOptions grouping = options.grouping;
  if (grouping.threads == 0) grouping.threads = options.threads;
  HoldBoundOptions hold = options.hold;
  if (hold.threads == 0) hold.threads = options.threads;

  const std::vector<double> means = model.max_means();
  const std::vector<double> sigmas = model.max_sigmas();
  art.prior_lower.resize(np);
  art.prior_upper.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    art.prior_lower[p] = means[p] - 3.0 * sigmas[p];
    art.prior_upper[p] = means[p] + 3.0 * sigmas[p];
  }

  // Batch composition matters enormously for alignment: when co-batched
  // paths are highly correlated, their pass/fail outcomes track each other
  // for many consecutive bisections, so one clock period keeps cutting ALL
  // of their ranges. Paths are therefore handed to the (order-respecting,
  // greedy first-fit) batch builder grouped by correlation cluster, sorted
  // by mean within a cluster.
  const auto cluster_major = [&](const std::vector<std::vector<std::size_t>>&
                                     clusters) {
    std::vector<std::size_t> out;
    for (const auto& cl : clusters) {
      std::vector<std::size_t> sorted = cl;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [&](std::size_t a, std::size_t b) {
                         return means[a] < means[b];
                       });
      out.insert(out.end(), sorted.begin(), sorted.end());
    }
    return out;
  };

  if (options.use_prediction) {
    const linalg::Matrix cov = model.max_covariance(options.threads);
    art.selection = select_paths(cov, grouping);
    art.tested = art.selection.tested;
    std::vector<std::vector<std::size_t>> tested_by_group;
    for (const PathGroup& g : art.selection.groups) {
      tested_by_group.push_back(g.selected);
    }
    art.batches = build_batches(problem, cluster_major(tested_by_group),
                                options.batching);

    // The chip-independent prediction gain (Cholesky of Sigma_t + W +
    // posterior sigmas) is a function of (cov, tested) only: compute it
    // once here and hand the same shared object to slot filling and the
    // final predictor. When slot filling inserts nothing, the measured set
    // is unchanged and the factorization is NOT redone — and every chip,
    // reused flow and same-circuit campaign job predicts through this one
    // object (sharing, not copying; see DESIGN.md §2/§9).
    std::shared_ptr<const stats::PredictionGain> gain;
    if (options.fill_slots && art.tested.size() < np) {
      // Rank untested paths by posterior sigma (eq. 5 — measurement
      // independent) and pour the worst-predicted ones into empty slots.
      gain = stats::PredictionGain::compute(cov, art.tested, /*jitter=*/1e-9);
      const auto& predicted = gain->predicted;
      const auto& psigma = gain->posterior_sigma;
      std::vector<std::size_t> order(predicted.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return psigma[a] > psigma[b];
      });
      std::vector<std::size_t> candidates;
      candidates.reserve(order.size());
      for (std::size_t k : order) candidates.push_back(predicted[k]);
      const std::vector<std::size_t> inserted = fill_empty_slots(
          problem, art.batches, candidates, options.batching, means);
      if (!inserted.empty()) {
        art.tested.insert(art.tested.end(), inserted.begin(), inserted.end());
        std::sort(art.tested.begin(), art.tested.end());
        gain.reset();  // measured set changed; refactorize below
      }
    }
    if (art.tested.size() < np) {
      if (gain == nullptr) {
        gain =
            stats::PredictionGain::compute(cov, art.tested, /*jitter=*/1e-9);
      }
      art.predictor.emplace(std::move(gain), means);
    }
  } else {
    // No statistical prediction (Fig. 8 modes): every path is tested, but
    // batches are still composed correlation-cluster-major.
    art.tested.resize(np);
    std::iota(art.tested.begin(), art.tested.end(), std::size_t{0});
    const linalg::Matrix cov = model.max_covariance(options.threads);
    art.batches = build_batches(
        problem, cluster_major(correlation_clusters(cov)), options.batching);
  }

  art.hold = compute_hold_bounds(problem, rng, hold);
  return art;
}

FlowResult run_flow(const Problem& problem, const FlowOptions& options,
                    std::shared_ptr<const FlowArtifacts> reuse) {
  FlowResult out;
  FlowMetrics& m = out.metrics;
  const timing::CircuitModel& model = problem.model();

  // --- Offline phase: T_d resolution + artifact preparation, owned by the
  //     service (seed-fork order unchanged — DESIGN.md §4/§10). -----------
  const TunerService service(problem, options, std::move(reuse));
  const double td = service.designated_period();
  m.designated_period = td;
  m.epsilon_ps = service.test_options().epsilon_ps;
  m.tp_seconds = service.prepare_seconds();
  const FlowArtifacts& art = service.artifacts();

  // --- Static counts (ns/ng are netlist facts; benches fill them in). -----
  m.np = model.num_pairs();
  m.npt = art.tested.size();
  m.nb = problem.num_buffers();
  m.num_groups = art.selection.groups.size();
  m.num_batches = art.batches.size();
  m.num_selected = art.selection.tested.size();

  // Path-wise baseline iterations are deterministic: bisection of the prior
  // 6-sigma range down to epsilon for each of the np paths.
  std::size_t pathwise_total = 0;
  for (std::size_t p = 0; p < m.np; ++p) {
    pathwise_total += pathwise_iterations(
        art.prior_lower[p], art.prior_upper[p], m.epsilon_ps);
  }
  m.ta_pathwise = static_cast<double>(pathwise_total);
  m.tv_pathwise = m.np > 0 ? m.ta_pathwise / static_cast<double>(m.np) : 0.0;

  // --- Monte-Carlo tester loop: a thin driver over the TunerService API.
  //     (parallel::deterministic_reduce; chip c draws from its own stream
  //     seeded index_seed(chip_seed_base, c), and tallies fold in a chunk
  //     layout fixed by the chip count alone, so any thread count gives
  //     bit-identical results). -------------------------------------------
  struct Tally {
    std::size_t iter_sum = 0;
    std::size_t forced = 0;
    std::size_t infeasible = 0;
    std::size_t pass_proposed = 0;
    std::size_t pass_ideal = 0;
    std::size_t pass_untuned = 0;
    double tt_sum = 0.0;
    double ts_sum = 0.0;
  };
  const std::uint64_t chip_seed_base = service.monte_carlo_seed_base();

  const auto process_chip = [&](std::size_t c, stats::Rng& chip_rng,
                                Tally& tally) {
    (void)c;
    thread_local timing::SampleWorkspace sample_ws;
    const timing::Chip chip = model.sample_chip(chip_rng, sample_ws);
    SimulatedChip tester(problem, chip);

    TuningSession session = service.begin_chip();
    session.drive(tester);
    const ChipReport& report = session.report();

    tally.iter_sum += report.test.iterations;
    tally.forced += report.test.forced;
    tally.tt_sum += report.test.align_seconds;
    tally.ts_sum += report.config_seconds;

    if (!report.config.feasible) ++tally.infeasible;
    if (report.passed.value_or(false)) ++tally.pass_proposed;
    const ConfigResult ideal = configure_ideal(problem, td, chip);
    if (ideal.feasible &&
        chip_passes(problem, chip, buffer_values(problem, ideal.steps), td)) {
      ++tally.pass_ideal;
    }
    if (chip_passes_untuned(problem, chip, td)) ++tally.pass_untuned;
  };

  parallel::ForOptions fopts;
  fopts.threads = options.threads;  // resolve_workers clamps by chip count
  const Tally total = parallel::deterministic_reduce<Tally>(
      options.chips, fopts, chip_seed_base, process_chip,
      [](Tally& a, const Tally& b) {
        a.iter_sum += b.iter_sum;
        a.forced += b.forced;
        a.infeasible += b.infeasible;
        a.pass_proposed += b.pass_proposed;
        a.pass_ideal += b.pass_ideal;
        a.pass_untuned += b.pass_untuned;
        a.tt_sum += b.tt_sum;
        a.ts_sum += b.ts_sum;
      });
  m.forced_resolutions = total.forced;
  m.infeasible_configs = total.infeasible;

  const auto n = static_cast<double>(options.chips);
  m.ta = static_cast<double>(total.iter_sum) / n;
  m.tv = m.npt > 0 ? m.ta / static_cast<double>(m.npt) : 0.0;
  m.ra = m.ta_pathwise > 0.0 ? (m.ta_pathwise - m.ta) / m.ta_pathwise * 100.0
                             : 0.0;
  m.rv = m.tv_pathwise > 0.0 ? (m.tv_pathwise - m.tv) / m.tv_pathwise * 100.0
                             : 0.0;
  m.tt_seconds_per_chip = total.tt_sum / n;
  m.ts_seconds_per_chip = total.ts_sum / n;
  m.yield_no_buffer = static_cast<double>(total.pass_untuned) / n;
  m.yield_ideal = static_cast<double>(total.pass_ideal) / n;
  m.yield_proposed = static_cast<double>(total.pass_proposed) / n;
  m.yield_drop = m.yield_ideal - m.yield_proposed;
  out.artifacts = service.shared_artifacts();  // shared, no copy
  return out;
}

}  // namespace effitest::core
