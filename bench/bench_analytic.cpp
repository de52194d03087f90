// Analytic post-tuning SSTA at full-ISCAS89 scale (src/analytic/):
// tuned-period distribution + per-pair criticality from the contracted
// constraint-graph engine, cross-checked against the exact per-die
// Monte-Carlo reference (binary search + Bellman-Ford feasibility).
//
// The default circuit list is the scale the flow benches never open:
// the three largest ISCAS89 circuits (s35932, s38417, s38584) plus a
// 10k-gate catalog-scaled family (s9234 x1.8, s13207 x1.25, s15850
// x1.02). The engine's tuned mean/sigma are deterministic (no RNG at
// all), so bench/baselines/analytic_*.json gates them tightly; the
// engine wall-clock is gated only by a wide ceiling.
//
// Columns:
//   ns, ng, nb, np   circuit statistics
//   cand             candidate cycle constraints found by the engine
//   untuned u/s      untuned required-period mean / sigma (Clark)
//   tuned u/s        post-tuning mean / sigma (engine)
//   MC u/s           Monte-Carlo reference mean / sigma (--chips dies)
//   eng(ms), mc(ms)  wall clock of engine vs MC reference
//   speedup          mc / engine

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "analytic/engine.hpp"
#include "bench_common.hpp"
#include "io/bench_json.hpp"
#include "scenario/circuit_catalog.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The paper/extended catalog plus every scaled name like "s9234@x1.8"
/// in `names`.
std::shared_ptr<const effitest::scenario::CircuitCatalog> catalog_for(
    const std::vector<std::string>& names) {
  auto catalog = effitest::scenario::CircuitCatalog::make_paper();
  for (const std::string& name : names) {
    const std::size_t at = name.find("@x");
    if (at != std::string::npos && !catalog->contains(name)) {
      catalog->add(name, effitest::scenario::ScaledCircuit{
                             name.substr(0, at),
                             std::stod(name.substr(at + 2)), std::nullopt});
    }
  }
  return catalog;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace effitest;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  const std::size_t chips = args.chips > 0 ? args.chips : 200;

  std::vector<std::string> names = args.circuits;
  if (names.empty()) {
    names = {"s35932",    "s38417",      "s38584",
             "s9234@x1.8", "s13207@x1.25", "s15850@x1.02"};
  }

  std::cout << "=== Analytic post-tuning SSTA vs per-die Monte-Carlo ===\n"
            << "MC reference dies per circuit: " << chips << "\n\n";

  core::Table table({"Circuit", "ns", "ng", "nb", "np", "cand", "untuned u",
                     "untuned s", "tuned u", "tuned s", "MC u", "MC s",
                     "eng(ms)", "mc(ms)", "speedup"});
  io::JsonReporter json("analytic", args.threads);

  const auto catalog = catalog_for(names);
  for (const std::string& name : names) {
    const auto circuit = catalog->resolve(name);

    const auto e0 = Clock::now();
    const analytic::TunedPeriodAnalysis analysis =
        analytic::analyze_tuned_period(circuit->problem);
    const double engine_seconds = seconds_since(e0);

    analytic::McTunedOptions mopts;
    mopts.chips = chips;
    mopts.seed = args.seed;
    mopts.threads = args.threads;
    const auto m0 = Clock::now();
    const analytic::McTunedPeriod mc =
        analytic::mc_tuned_period(circuit->problem, mopts);
    const double mc_seconds = seconds_since(m0);

    const auto record = [&](const char* metric, double value,
                            double seconds) {
      json.add(name, metric, value, seconds);
    };
    record("tuned_mean", analysis.tuned.mean, engine_seconds);
    record("tuned_sigma", analysis.tuned.sigma(), engine_seconds);
    record("untuned_mean", analysis.untuned.mean, engine_seconds);
    record("untuned_sigma", analysis.untuned.sigma(), engine_seconds);
    record("candidates", static_cast<double>(analysis.candidates.size()),
           engine_seconds);
    record("mc_tuned_mean", mc.mean, mc_seconds);
    record("mc_tuned_sigma", mc.sigma, mc_seconds);
    record("engine_seconds", engine_seconds, engine_seconds);

    table.add_row({
        name,
        core::Table::num(circuit->netlist.num_flip_flops()),
        core::Table::num(circuit->netlist.num_combinational_gates()),
        core::Table::num(circuit->problem.num_buffers()),
        core::Table::num(circuit->problem.model().num_pairs()),
        core::Table::num(analysis.candidates.size()),
        core::Table::num(analysis.untuned.mean, 2),
        core::Table::num(analysis.untuned.sigma(), 2),
        core::Table::num(analysis.tuned.mean, 2),
        core::Table::num(analysis.tuned.sigma(), 2),
        core::Table::num(mc.mean, 2),
        core::Table::num(mc.sigma, 2),
        core::Table::num(engine_seconds * 1e3, 2),
        core::Table::num(mc_seconds * 1e3, 2),
        core::Table::num(engine_seconds > 0.0 ? mc_seconds / engine_seconds
                                              : 0.0,
                         1),
    });
  }

  table.print(std::cout);
  std::cout << "\nThe engine's tuned mean tracks the MC reference from "
               "above (Clark max is conservative); sigma from below.\n"
            << "machine-readable output: " << json.write() << "\n";
  return 0;
}
