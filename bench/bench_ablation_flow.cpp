// Ablations over the flow-level design choices DESIGN.md calls out:
//   1) empty-slot filling on/off (§3.2 last paragraph),
//   2) middle-out weighting k0 >> kd vs uniform weights (§3.3, Fig. 6e),
//   3) resolution epsilon sweep (test cost vs measurement accuracy),
//   4) PCA coverage sweep (npt vs yield drop trade-off),
//   5) logic-masking exclusions on/off.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace effitest;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  const std::size_t chips = args.chips > 0 ? args.chips : 150;
  const std::string circuit =
      args.circuits.empty() ? "s13207"
                            : bench::selected_circuits(args).front();

  std::cout << "=== Flow ablations on " << circuit << " (chips=" << chips
            << ") ===\n\n";
  const auto prepared =
      scenario::CircuitCatalog::shared_paper()->resolve(circuit);

  const auto run = [&](core::FlowOptions opts) {
    opts.chips = chips;
    opts.seed = args.seed;
    opts.threads = args.threads;
    return core::run_flow(prepared->problem, opts);
  };

  {
    std::cout << "--- 1) empty-slot filling (paths measured for free) ---\n";
    core::Table t({"variant", "npt", "ta", "yt(%)", "yi-yt(%)"});
    for (bool fill : {true, false}) {
      core::FlowOptions o;
      o.fill_slots = fill;
      const core::FlowResult r = run(o);
      t.add_row({fill ? "fill on (paper)" : "fill off",
                 core::Table::num(r.metrics.npt),
                 core::Table::num(r.metrics.ta, 2),
                 bench::pct(r.metrics.yield_proposed),
                 bench::pct(r.metrics.yield_drop)});
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n--- 2) center weighting: middle-out k0 >> kd vs uniform "
                 "---\n";
    core::Table t({"variant", "ta", "tv"});
    for (bool middle_out : {true, false}) {
      core::FlowOptions o;
      if (middle_out) {
        o.test.k0 = 1000.0;
        o.test.kd = 1.0;
      } else {
        o.test.k0 = 1.0;  // uniform weights: the Fig. 6e degenerate case
        o.test.kd = 0.0;
      }
      const core::FlowResult r = run(o);
      t.add_row({middle_out ? "middle-out (paper)" : "uniform",
                 core::Table::num(r.metrics.ta, 2),
                 core::Table::num(r.metrics.tv, 2)});
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n--- 3) resolution epsilon sweep ---\n";
    core::Table t({"epsilon(ps)", "t'v", "tv", "ta", "yt(%)"});
    for (double eps : {2.0, 1.0, 0.5, 0.25}) {
      core::FlowOptions o;
      o.epsilon_override = eps;
      const core::FlowResult r = run(o);
      t.add_row({core::Table::num(eps, 2),
                 core::Table::num(r.metrics.tv_pathwise, 2),
                 core::Table::num(r.metrics.tv, 2),
                 core::Table::num(r.metrics.ta, 2),
                 bench::pct(r.metrics.yield_proposed)});
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n--- 4) PCA coverage sweep (tested paths vs accuracy) "
                 "---\n";
    core::Table t({"coverage", "npt", "ta", "yt(%)", "yi-yt(%)"});
    for (double cov : {0.90, 0.95, 0.98, 0.995}) {
      core::FlowOptions o;
      o.grouping.use_kaiser = false;  // sweep the coverage rule explicitly
      o.grouping.pca_coverage = cov;
      const core::FlowResult r = run(o);
      t.add_row({core::Table::num(cov, 3), core::Table::num(r.metrics.npt),
                 core::Table::num(r.metrics.ta, 2),
                 bench::pct(r.metrics.yield_proposed),
                 bench::pct(r.metrics.yield_drop)});
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n--- 5) logic-masking exclusions (paths that cannot share "
                 "a batch) ---\n";
    core::Table t({"variant", "batches", "ta", "tv"});
    for (bool excl : {false, true}) {
      core::FlowOptions o;
      if (excl) {
        o.batching.exclusions = prepared->exclusions;
      }
      const core::FlowResult r = run(o);
      t.add_row({excl ? "with exclusions" : "no exclusions",
                 core::Table::num(r.metrics.num_batches),
                 core::Table::num(r.metrics.ta, 2),
                 core::Table::num(r.metrics.tv, 2)});
    }
    t.print(std::cout);
  }
  return 0;
}
