// Reproduces Figure 8 of the paper: "Test comparison without statistical
// prediction" — iterations per path in three test regimes, with every
// monitored path tested (no conditional prediction):
//   1) path-wise frequency stepping (refs. [2,6,8,9]),
//   2) path test multiplexing with all buffers frozen at zero,
//   3) multiplexing + delay-range alignment by tuning buffers (proposed).
// Expected ordering on every circuit: path-wise > multiplexing > proposed.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace effitest;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  const std::size_t chips = args.chips > 0 ? args.chips : 100;
  const std::vector<std::string> names = bench::selected_circuits(args);

  std::cout << "=== Figure 8: iterations per path without statistical "
               "prediction ===\n"
            << "chips per circuit: " << chips << " (paper: 10000)\n\n";

  core::Table table(
      {"Circuit", "path-wise", "multiplexing", "proposed (aligned)"});

  const auto catalog = scenario::CircuitCatalog::shared_paper();
  for (const std::string& name : names) {
    const auto circuit = catalog->resolve(name);

    core::FlowOptions base;
    base.chips = chips;
    base.seed = args.seed;
    base.threads = args.threads;
    base.use_prediction = false;  // test all np paths
    base.evaluate_yield = false;  // iterations only

    core::FlowOptions frozen = base;
    frozen.test.align_with_buffers = false;

    const core::FlowResult mux = core::run_flow(circuit->problem, frozen);
    // Batches/hold bounds are identical for both regimes; reuse them.
    const core::FlowResult aligned =
        core::run_flow(circuit->problem, base, mux.artifacts);

    table.add_row({
        name,
        core::Table::num(mux.metrics.tv_pathwise, 2),
        core::Table::num(mux.metrics.tv, 2),
        core::Table::num(aligned.metrics.tv, 2),
    });
  }
  table.print(std::cout);
  std::cout << "\nPaper reference: path-wise ~8.3-9.5, multiplexing and "
               "alignment successively lower\n(alignment reduction alone = "
               "column rv of Table 1: 57.6-75.2%).\n";
  return 0;
}
