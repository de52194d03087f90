// Ablation: quality and cost of the alignment solvers (DESIGN.md §5).
//
// The paper solves eqs. 7-14 with Gurobi per tester iteration. This build
// runs coordinate descent in the Monte-Carlo loop for speed and keeps the
// exact MILP, in its compact and big-M forms, as the oracle. This bench
// quantifies, over randomly sampled mid-test alignment instances:
//   * the optimality gap of coordinate descent vs. the exact compact MILP,
//   * the agreement of the paper's literal big-M MILP with the compact MILP,
//   * wall-clock per solve for each method (coordinate descent through one
//     reused workspace, as the per-chip test machine runs it).
// It exits 1 when the two MILP forms disagree by more than 1e-6 ps, and
// writes BENCH_ablation_alignment.json (cd_optimal_instances,
// cd_mean_gap_pct, cd_max_gap_pct) for bench/baselines/ablation_alignment.json.

#include <chrono>

#include "bench_common.hpp"
#include "core/alignment.hpp"
#include "io/bench_json.hpp"
#include "milp_oracles.hpp"
#include "stats/rng.hpp"

int main(int argc, char** argv) {
  using namespace effitest;
  using Clock = std::chrono::steady_clock;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  const std::size_t instances = args.chips > 0 ? args.chips : 150;

  std::cout << "=== Ablation: alignment solver quality (CD vs exact MILP) "
               "===\n"
            << "instances: " << instances << "\n\n";

  const auto circuit =
      scenario::CircuitCatalog::shared_paper()->resolve("s13207");
  const core::Problem& problem = circuit->problem;
  stats::Rng rng(args.seed);

  const auto means = circuit->model.max_means();
  const auto sigmas = circuit->model.max_sigmas();

  double gap_sum = 0.0;
  double gap_max = 0.0;
  std::size_t cd_wins_or_ties = 0;
  double bigm_disagreement = 0.0;
  double t_cd = 0.0;
  double t_compact = 0.0;
  double t_bigm = 0.0;
  core::AlignmentWorkspace workspace;

  for (std::size_t k = 0; k < instances; ++k) {
    // Random mid-test state: 2-6 unresolved paths with shrunken ranges.
    core::AlignmentInstance ai;
    ai.problem = &problem;
    ai.current_steps = problem.neutral_steps();
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    std::vector<double> centers;
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(means.size()) - 1));
      centers.push_back(means[p] + rng.normal(0.0, sigmas[p]));
    }
    std::vector<std::size_t> order;
    std::vector<double> w;
    core::middle_out_weights(centers, 1000.0, 1.0, order, w);
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(means.size()) - 1));
      ai.entries.push_back(core::AlignmentEntry{
          centers[i], w[i], problem.src_buffer(p), problem.dst_buffer(p)});
    }

    const auto t0 = Clock::now();
    const auto cd = core::solve_alignment(ai, &workspace);
    const auto t1 = Clock::now();
    const auto compact =
        core::solve_alignment_milp(ai, core::MilpForm::kCompact);
    const auto t2 = Clock::now();
    const auto bigm = core::solve_alignment_milp(ai, core::MilpForm::kBigM);
    const auto t3 = Clock::now();

    t_cd += std::chrono::duration<double>(t1 - t0).count();
    t_compact += std::chrono::duration<double>(t2 - t1).count();
    t_bigm += std::chrono::duration<double>(t3 - t2).count();

    const double denom = std::max(compact.objective, 1e-9);
    const double gap = (cd.objective - compact.objective) / denom;
    gap_sum += std::max(gap, 0.0);
    gap_max = std::max(gap_max, gap);
    if (cd.objective <= compact.objective + 1e-9) ++cd_wins_or_ties;
    bigm_disagreement = std::max(
        bigm_disagreement, std::abs(bigm.objective - compact.objective));
  }

  core::Table table({"metric", "value"});
  const double n = static_cast<double>(instances);
  table.add_row({"CD mean relative gap (%)",
                 core::Table::num(gap_sum / n * 100.0, 3)});
  table.add_row({"CD max relative gap (%)",
                 core::Table::num(gap_max * 100.0, 3)});
  table.add_row({"CD exact-optimal instances",
                 core::Table::num(cd_wins_or_ties) + "/" +
                     core::Table::num(instances)});
  table.add_row({"big-M vs compact max |diff| (ps)",
                 core::Table::num(bigm_disagreement, 6)});
  table.add_row({"CD avg time (us)", core::Table::num(t_cd / n * 1e6, 2)});
  table.add_row(
      {"compact MILP avg time (us)", core::Table::num(t_compact / n * 1e6, 2)});
  table.add_row(
      {"big-M MILP avg time (us)", core::Table::num(t_bigm / n * 1e6, 2)});
  table.print(std::cout);
  std::cout << "\nInterpretation: both MILP formulations must agree (the "
               "indicator variables of\neqs. 8-13 are redundant for "
               "minimization). CD is a heuristic, not an exact\nsolver: at "
               "the default 150 instances (seed 2016) it is optimal on 119, "
               "its mean\ngap is 20.76% and its maximum 979.2%, where a "
               "stalled descent ends far above\nthe optimum. It buys the "
               "per-solve speed above.\n";

  const std::string name = circuit->netlist.name();
  const double seconds = t_cd + t_compact + t_bigm;
  io::JsonReporter json("ablation_alignment", 1);
  json.add(name, "cd_optimal_instances",
           static_cast<double>(cd_wins_or_ties), seconds);
  json.add(name, "cd_mean_gap_pct", gap_sum / n * 100.0, seconds);
  json.add(name, "cd_max_gap_pct", gap_max * 100.0, seconds);
  std::cout << "machine-readable output: " << json.write(".") << '\n';

  if (!(bigm_disagreement <= 1e-6)) {
    std::cerr << "error: big-M and compact MILP objectives differ by "
              << bigm_disagreement << " ps (> 1e-6)\n";
    return 1;
  }
  return 0;
}
