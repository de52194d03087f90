// Micro-benchmarks (google-benchmark) for the numeric substrates that sit on
// the critical path of the Monte-Carlo experiments: the blocked Cholesky and
// triangular solves against their seed naive references, the Householder +
// QL symmetric eigensolver under Procedure-1 PCA, the
// simplex/branch&bound solver, the coordinate-descent alignment, the
// conditional-Gaussian predictor, normal draws and chip sampling, buffer
// configuration and circuit model construction.
//
// Besides the google-benchmark cases, a manual blocked-vs-naive comparison
// runs at the end and emits BENCH_micro_solvers.json with the measured
// speedups. The "blocked Cholesky+solve >= 2x at n >= 256" acceptance
// numbers are quoted from those records; CI schema-validates the file but
// does not gate on the timings (shared runners are too noisy — the
// baseline gate pins the deterministic table1 metrics instead).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "io/bench_json.hpp"
#include "core/alignment.hpp"
#include "core/configurator.hpp"
#include "core/flow.hpp"
#include "core/table.hpp"
#include "linalg/decomposition.hpp"
#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"
#include "lp/solver.hpp"
#include "milp_oracles.hpp"
#include "reference_kernels.hpp"
#include "netlist/generator.hpp"
#include "stats/conditional.hpp"
#include "stats/rng.hpp"

namespace {

using namespace effitest;

linalg::Matrix random_dense(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Matrix a(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) a(r, c) = rng.normal();
  }
  return a;
}

linalg::Matrix random_spd(std::size_t n, std::uint64_t seed) {
  const linalg::Matrix a = random_dense(n, n, seed);
  linalg::Matrix spd = a * a.transposed();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

void BM_Cholesky(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_spd(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::cholesky(a));
  }
}
BENCHMARK(BM_Cholesky)->Arg(16)->Arg(64)->Arg(128)->Arg(256)->Arg(384);

void BM_CholeskyNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_spd(n, 1);
  for (auto _ : state) {
    linalg::Matrix l;
    benchmark::DoNotOptimize(linalg::kernels::reference_cholesky(a, 0.0, l));
  }
}
BENCHMARK(BM_CholeskyNaive)->Arg(128)->Arg(256)->Arg(384);

void BM_TrsmBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix l;
  (void)linalg::kernels::reference_cholesky(random_spd(n, 24), 0.0, l);
  const linalg::Matrix rhs = random_dense(n, n, 25);
  for (auto _ : state) {
    linalg::Matrix x = rhs;
    linalg::kernels::trsm_lower(l, x);
    linalg::kernels::trsm_lower_transposed(l, x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_TrsmBlocked)->Arg(128)->Arg(256)->Arg(384);

void BM_TrsmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix l;
  (void)linalg::kernels::reference_cholesky(random_spd(n, 24), 0.0, l);
  const linalg::Matrix rhs = random_dense(n, n, 25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        linalg::kernels::reference_cholesky_solve(l, rhs));
  }
}
BENCHMARK(BM_TrsmNaive)->Arg(128)->Arg(256)->Arg(384);

// Up to 320 = GroupingOptions::pca_max_block, the largest block a
// Procedure-1 group decomposes.
void BM_SymmetricEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_spd(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigen_symmetric(a));
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(16)->Arg(48)->Arg(96)->Arg(320);

void BM_SimplexLp(benchmark::State& state) {
  // Alignment-LP-shaped problem: T free, eta per path, bounded steps.
  const auto paths = static_cast<std::size_t>(state.range(0));
  lp::Model m;
  const int t = m.add_continuous(-1000.0, 1000.0, 0.0);
  stats::Rng rng(3);
  std::vector<int> etas;
  for (std::size_t p = 0; p < paths; ++p) {
    const int eta = m.add_continuous(0.0, lp::kInf, 1.0);
    const double c = rng.uniform(100.0, 200.0);
    m.add_constraint({{t, 1.0}, {eta, -1.0}}, lp::Sense::kLessEqual, c);
    m.add_constraint({{t, -1.0}, {eta, -1.0}}, lp::Sense::kLessEqual, -c);
    etas.push_back(eta);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve_lp(m));
  }
}
BENCHMARK(BM_SimplexLp)->Arg(8)->Arg(32)->Arg(64);

struct FlowFixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  core::Problem problem;

  FlowFixture()
      : circuit(netlist::generate_circuit(
            netlist::paper_benchmark_spec("s9234"))),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}

  static const FlowFixture& get() {
    static const FlowFixture f;
    return f;
  }
};

/// Standard normals from stats::Rng (the ziggurat), 1,024 per iteration:
/// the bulk of die sampling, which draws ~4,400 of them per s38584 die.
void BM_NormalDraw(benchmark::State& state) {
  stats::Rng rng(5);
  std::vector<double> out(1024);
  for (auto _ : state) {
    for (double& z : out) z = rng.normal();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_NormalDraw);

/// The model a sampling or covariance case runs on: Arg(0) is the flow
/// fixture's s9234; Arg(1) is mem_ctrl, whose ~3,000 monitored pairs (6,032
/// forms, 142k loading entries) make both memory-bound.
const timing::CircuitModel& sized_model(benchmark::State& state) {
  if (state.range(0) == 0) {
    state.SetLabel("s9234");
    return FlowFixture::get().model;
  }
  static const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  static const netlist::GeneratedCircuit circuit =
      netlist::generate_circuit(netlist::paper_benchmark_spec("mem_ctrl"));
  static const timing::CircuitModel model(circuit.netlist, lib,
                                          circuit.buffered_ffs);
  state.SetLabel("mem_ctrl");
  return model;
}

/// One die per iteration through a reused workspace, as the chip loops
/// sample.
void BM_ChipSampling(benchmark::State& state) {
  const timing::CircuitModel& model = sized_model(state);
  stats::Rng rng(4);
  timing::SampleWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.sample_chip(rng, ws));
  }
}
BENCHMARK(BM_ChipSampling)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Six entries on random monitored pairs at neutral steps (six is the mean
/// instance size of the per-chip test on s38584).
core::AlignmentInstance alignment_instance(const FlowFixture& f,
                                           std::uint64_t seed) {
  stats::Rng rng(seed);
  core::AlignmentInstance inst;
  inst.problem = &f.problem;
  inst.current_steps = f.problem.neutral_steps();
  const auto means = f.model.max_means();
  for (std::size_t i = 0; i < 6; ++i) {
    const auto p = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(means.size()) - 1));
    inst.entries.push_back(core::AlignmentEntry{
        means[p], 1.0, f.problem.src_buffer(p), f.problem.dst_buffer(p)});
  }
  return inst;
}

void BM_AlignmentCoordinateDescent(benchmark::State& state) {
  const core::AlignmentInstance inst =
      alignment_instance(FlowFixture::get(), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_alignment(inst));
  }
}
BENCHMARK(BM_AlignmentCoordinateDescent);

/// The same solve through one reused workspace, as the per-chip test
/// machine runs it.
void BM_AlignmentCoordinateDescentReusedWorkspace(benchmark::State& state) {
  const core::AlignmentInstance inst =
      alignment_instance(FlowFixture::get(), 5);
  core::AlignmentWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_alignment(inst, &ws));
  }
}
BENCHMARK(BM_AlignmentCoordinateDescentReusedWorkspace);

void BM_AlignmentMilp(benchmark::State& state) {
  const core::AlignmentInstance inst =
      alignment_instance(FlowFixture::get(), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_alignment_milp(inst));
  }
}
BENCHMARK(BM_AlignmentMilp);

void BM_ConditionalPredictor(benchmark::State& state) {
  const FlowFixture& f = FlowFixture::get();
  const linalg::Matrix cov = f.model.max_covariance();
  const std::vector<double> means = f.model.max_means();
  std::vector<std::size_t> tested;
  for (std::size_t p = 0; p < f.model.num_pairs(); p += 7) tested.push_back(p);
  const core::DelayPredictor pred(
      stats::PredictionGain::compute(cov, tested, /*jitter=*/1e-9), means);
  std::vector<double> ml(tested.size());
  std::vector<double> mu(tested.size());
  for (std::size_t t = 0; t < tested.size(); ++t) {
    ml[t] = means[tested[t]] - 1.0;
    mu[t] = means[tested[t]] + 1.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.predict(ml, mu));
  }
}
BENCHMARK(BM_ConditionalPredictor);

void BM_BufferConfiguration(benchmark::State& state) {
  const FlowFixture& f = FlowFixture::get();
  const auto means = f.model.max_means();
  const auto sigmas = f.model.max_sigmas();
  std::vector<double> lower(means.size());
  std::vector<double> upper(means.size());
  for (std::size_t p = 0; p < means.size(); ++p) {
    lower[p] = means[p] - sigmas[p];
    upper[p] = means[p] + sigmas[p];
  }
  const double td = *std::max_element(means.begin(), means.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::configure_buffers(f.problem, td, lower, upper, {}));
  }
}
BENCHMARK(BM_BufferConfiguration);

void BM_CovarianceBuild(benchmark::State& state) {
  const timing::CircuitModel& model = sized_model(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.max_covariance());
  }
}
BENCHMARK(BM_CovarianceBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Whole CircuitModel construction: one cone sweep per launching FF, path
/// enumeration and form building. s38584 is the largest tester-floor
/// circuit; ac97_ctrl promotes the most background pairs, which re-sweep
/// their source in pass 2.
void BM_CircuitModelBuild(benchmark::State& state) {
  static const char* const kNames[] = {"s38584", "ac97_ctrl"};
  const char* name = kNames[state.range(0)];
  static const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  const netlist::GeneratedCircuit circuit =
      netlist::generate_circuit(netlist::paper_benchmark_spec(name));
  state.SetLabel(name);
  for (auto _ : state) {
    const timing::CircuitModel model(circuit.netlist, lib,
                                     circuit.buffered_ffs);
    benchmark::DoNotOptimize(model.num_pairs());
  }
}
BENCHMARK(BM_CircuitModelBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// -- Manual blocked-vs-naive comparison + JSON emission ---------------------

using Clock = std::chrono::steady_clock;

/// Best-of-`reps` wall time of `body` in seconds.
template <typename Body>
double best_seconds(std::size_t reps, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

/// The acceptance comparison: factor an SPD matrix and solve it against n
/// right-hand sides, seed path (naive Cholesky + per-column substitution)
/// versus kernel path (blocked Cholesky + multi-RHS TRSM) at the harness
/// --threads value. Emits one JSON record per measurement plus the speedup.
void report_kernels_vs_naive(io::JsonReporter& json, std::size_t threads) {
  std::cout << "\n=== blocked kernels vs. seed naive (Cholesky + solve, "
               "n right-hand sides) ===\n";
  const linalg::kernels::KernelOptions opts{threads};
  core::Table table({"n", "naive(ms)", "blocked(ms)", "speedup"});
  for (std::size_t n : {std::size_t{128}, std::size_t{256}, std::size_t{384}}) {
    const linalg::Matrix spd = random_spd(n, 31);
    const linalg::Matrix rhs = random_dense(n, n, 32);
    const std::size_t reps = n <= 128 ? 9 : 5;
    const double naive = best_seconds(reps, [&] {
      linalg::Matrix l;
      if (!linalg::kernels::reference_cholesky(spd, 0.0, l)) std::abort();
      benchmark::DoNotOptimize(
          linalg::kernels::reference_cholesky_solve(l, rhs));
    });
    const double blocked = best_seconds(reps, [&] {
      linalg::Matrix l;
      if (!linalg::kernels::cholesky_blocked(spd, 0.0, l, opts)) std::abort();
      linalg::Matrix x = rhs;
      linalg::kernels::trsm_lower(l, x, opts);
      linalg::kernels::trsm_lower_transposed(l, x, opts);
      benchmark::DoNotOptimize(x);
    });
    const double speedup = naive / blocked;
    table.add_row({core::Table::num(n), core::Table::num(naive * 1e3, 3),
                   core::Table::num(blocked * 1e3, 3),
                   core::Table::num(speedup, 2)});
    const std::string size = "n" + std::to_string(n);
    json.add(size, "cholesky_solve_naive_seconds", naive, naive);
    json.add(size, "cholesky_solve_blocked_seconds", blocked, blocked);
    json.add(size, "cholesky_solve_speedup", speedup, naive + blocked);
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the harness-wide --threads flag (recorded in the JSON header)
  // before google-benchmark sees the argument list.
  std::size_t threads = 0;
  std::vector<char*> kept;
  kept.reserve(static_cast<std::size_t>(argc));
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--threads=", 0) == 0) {
      threads = static_cast<std::size_t>(std::stoul(a.substr(10)));
    } else {
      kept.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(kept.size());
  argv = kept.data();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  effitest::io::JsonReporter json("micro_solvers", threads);
  report_kernels_vs_naive(json, threads);
  std::cout << "machine-readable output: " << json.write() << "\n";
  return 0;
}
