// Reproduces Table 1 of the paper: "Test Results With Delay Alignment and
// Statistical Prediction".
//
// Columns, as in the paper:
//   ns, ng     flip-flops / logic gates of the circuit
//   nb         inserted tuning buffers
//   np         paths whose delays are required for buffer configuration
//   npt        paths actually tested (PCA selection + filled slots)
//   ta, tv     frequency-stepping iterations per chip / per tested path
//   t'a, t'v   path-wise baseline iterations per chip / per path
//   ra, rv     reduction ratios (%)
//   Tp, Tt, Ts runtimes: offline prep / per-chip (T,x) computation /
//              per-chip final buffer configuration
//
// Absolute runtimes depend on the host; the iteration columns are the
// reproduction targets (ra > 94% on every circuit in the paper).

#include "bench_common.hpp"
#include "io/bench_json.hpp"
#include "core/campaign.hpp"

int main(int argc, char** argv) {
  using namespace effitest;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  const std::size_t chips = args.chips > 0 ? args.chips : 2000;

  std::cout << "=== Table 1: test results with delay alignment and "
               "statistical prediction ===\n"
            << "chips per circuit: " << chips << " (paper: 10000)\n\n";

  core::Table table({"Circuit", "ns", "ng", "nb", "np", "npt", "ta", "tv",
                     "t'a", "t'v", "ra(%)", "rv(%)", "Tp(s)", "Tt(s)",
                     "Ts(s)"});

  // One default-convention job per circuit, fanned out across all cores by
  // the campaign runner (results are identical to the former serial loop).
  core::CampaignOptions copts;
  copts.flow.chips = chips;
  copts.flow.seed = args.seed;
  copts.threads = args.threads;  // flow.threads of 0 inherits this
  const std::vector<std::string> names = bench::selected_circuits(args);
  const core::CampaignResult result =
      core::CampaignRunner(copts).run(core::CampaignRunner::cross(names, {}));

  io::JsonReporter json("table1", args.threads);
  for (const core::CampaignJobResult& job : result.jobs) {
    const core::FlowMetrics& m = job.metrics;
    const auto record = [&](const char* metric, double value) {
      json.add(job.job.circuit, metric, value, job.seconds);
    };
    record("np", static_cast<double>(m.np));
    record("npt", static_cast<double>(m.npt));
    record("ta", m.ta);
    record("tv", m.tv);
    record("t'a", m.ta_pathwise);
    record("t'v", m.tv_pathwise);
    record("ra", m.ra);
    record("rv", m.rv);
    record("wall_seconds", job.seconds);
    table.add_row({
        job.job.circuit,
        core::Table::num(m.ns),
        core::Table::num(m.ng),
        core::Table::num(m.nb),
        core::Table::num(m.np),
        core::Table::num(m.npt),
        core::Table::num(m.ta, 2),
        core::Table::num(m.tv, 2),
        core::Table::num(m.ta_pathwise, 0),
        core::Table::num(m.tv_pathwise, 2),
        core::Table::num(m.ra, 2),
        core::Table::num(m.rv, 2),
        core::Table::num(m.tp_seconds, 2),
        core::Table::num(m.tt_seconds_per_chip, 4),
        core::Table::num(m.ts_seconds_per_chip, 4),
    });
  }
  table.print(std::cout);
  std::cout << "\nPaper reference (10000 chips): ra = 94.71..99.29%, "
               "rv = 57.59..75.15%, tv = 2.05..3.69.\n"
            << "campaign wall time: "
            << core::Table::num(result.total_seconds, 2) << " s\n"
            << "machine-readable output: " << json.write() << "\n";
  return 0;
}
