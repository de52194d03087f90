// Micro-benchmarks (google-benchmark) for the numeric substrates that sit on
// the critical path of the Monte-Carlo experiments: the Cholesky factor and
// solve of the prediction gain, the Householder + QL symmetric eigensolver
// under Procedure-1 PCA, the simplex/branch&bound solver, the
// coordinate-descent alignment, the conditional-Gaussian predictor, normal
// draws and chip sampling, buffer configuration and circuit model
// construction.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/alignment.hpp"
#include "core/configurator.hpp"
#include "core/flow.hpp"
#include "linalg/decomposition.hpp"
#include "linalg/eigen.hpp"
#include "lp/solver.hpp"
#include "milp_oracles.hpp"
#include "netlist/generator.hpp"
#include "scenario/circuit_catalog.hpp"
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

/// The prediction gain's factor and solve (stats::PredictionGain::compute)
/// at the real shapes: Sigma_t over the npt tested paths against the
/// np - npt untested ones, on s9234 (6 / 74), s38584 (30 / 340) and
/// pci_bridge32 (64 / 3,408), the largest Sigma_t any workload factors.
void BM_Cholesky(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const linalg::Matrix a = random_spd(n, 1);
  const linalg::Matrix b = random_dense(n, m, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::cholesky(a, 1e-9).solve(b));
  }
}
BENCHMARK(BM_Cholesky)
    ->Args({6, 74})
    ->Args({30, 340})
    ->Args({64, 3408})
    ->Unit(benchmark::kMicrosecond);

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
/// forms, 142k loading entries) make both memory-bound. The sampling cases
/// also run Arg(2), s38584 (the tester floor), and Arg(3), s13207 scaled
/// 1.25x (an analytic_signoff circuit).
const timing::CircuitModel& sized_model(benchmark::State& state) {
  struct Sized {
    const char* label;
    const char* paper;
    double scale;  ///< 1.0: the paper spec itself
  };
  static constexpr Sized kSized[] = {{"s9234", "s9234", 1.0},
                                     {"mem_ctrl", "mem_ctrl", 1.0},
                                     {"s38584", "s38584", 1.0},
                                     {"s13207@x1.25", "s13207", 1.25}};
  const Sized& sized = kSized[state.range(0)];
  state.SetLabel(sized.label);
  if (state.range(0) == 0) return FlowFixture::get().model;
  static const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  struct Built {
    netlist::GeneratedCircuit circuit;
    timing::CircuitModel model;
    explicit Built(const netlist::GeneratorSpec& spec)
        : circuit(netlist::generate_circuit(spec)),
          model(circuit.netlist, lib, circuit.buffered_ffs) {}
  };
  static std::map<std::int64_t, std::unique_ptr<const Built>> built;
  std::unique_ptr<const Built>& slot = built[state.range(0)];
  if (!slot) {
    slot = std::make_unique<const Built>(
        sized.scale == 1.0
            ? netlist::paper_benchmark_spec(sized.paper)
            : scenario::scaled_paper_spec(sized.paper, sized.scale));
  }
  return slot->model;
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
BENCHMARK(BM_ChipSampling)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

/// kLanes whole dies per sample_chips call into warm Chips, as the
/// post-tuning Monte-Carlo reference samples; time is reported per die.
void BM_ChipSamplingLanes(benchmark::State& state) {
  const timing::CircuitModel& model = sized_model(state);
  std::vector<stats::Rng> rngs;
  for (std::uint64_t b = 0; b < timing::kLanes; ++b) rngs.emplace_back(4 + b);
  timing::LaneWorkspace ws;
  std::vector<timing::Chip> chips(timing::kLanes);
  for (auto _ : state) {
    model.sample_chips(rngs, ws, chips);
    benchmark::DoNotOptimize(chips.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(timing::kLanes));
  // Seconds per die (printed with an SI prefix: 60u is 60 us).
  state.counters["per_die"] = benchmark::Counter(
      static_cast<double>(timing::kLanes),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ChipSamplingLanes)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMicrosecond);

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

}  // namespace

BENCHMARK_MAIN();
