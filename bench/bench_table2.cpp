// Reproduces Table 2 of the paper: "Yield Comparison".
//
// Two designated clock periods are evaluated per circuit:
//   T1 = median of the untuned required period   (no-buffer yield 50%)
//   T2 = its 84.13th percentile                  (no-buffer yield 84.13%)
// Columns per period:
//   yi  yield with perfect delay measurement (ideal configuration)
//   yt  yield with delays measured/predicted by the proposed method
//   yr  yield drop yi - yt caused by test and prediction inaccuracy
// The paper reports yr around 1-2% with yi far above the no-buffer yields.

#include "bench_common.hpp"
#include "io/bench_json.hpp"
#include "core/campaign.hpp"

int main(int argc, char** argv) {
  using namespace effitest;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  const std::size_t chips = args.chips > 0 ? args.chips : 2000;

  std::cout << "=== Table 2: yield comparison at T1 (50% untuned) and T2 "
               "(84.13% untuned) ===\n"
            << "chips per circuit: " << chips << " (paper: 10000)\n\n";

  core::Table table({"Circuit", "T1 yi(%)", "T1 yt(%)", "T1 yr(%)",
                     "T2 yi(%)", "T2 yt(%)", "T2 yr(%)", "y0(T1)%",
                     "y0(T2)%"});

  // Circuit-major (circuit, quantile) cross product: the campaign runner
  // prepares each circuit once, reuses the period-independent artifacts for
  // the T2 job, and fans circuits out across all cores.
  core::CampaignOptions copts;
  copts.flow.chips = chips;
  copts.flow.seed = args.seed;
  copts.threads = args.threads;  // flow.threads of 0 inherits this
  const std::vector<std::string> names = bench::selected_circuits(args);
  const core::CampaignResult result = core::CampaignRunner(copts).run(
      core::CampaignRunner::cross(names, {0.5, 0.8413}));

  io::JsonReporter json("table2", args.threads);
  for (std::size_t c = 0; c < names.size(); ++c) {
    const core::FlowMetrics& t1 = result.jobs[2 * c].metrics;
    const core::FlowMetrics& t2 = result.jobs[2 * c + 1].metrics;
    json.add(names[c], "t1_yield_ideal", t1.yield_ideal * 100.0,
             result.jobs[2 * c].seconds);
    json.add(names[c], "t1_yield_proposed", t1.yield_proposed * 100.0,
             result.jobs[2 * c].seconds);
    json.add(names[c], "t2_yield_ideal", t2.yield_ideal * 100.0,
             result.jobs[2 * c + 1].seconds);
    json.add(names[c], "t2_yield_proposed", t2.yield_proposed * 100.0,
             result.jobs[2 * c + 1].seconds);
    table.add_row({
        names[c],
        bench::pct(t1.yield_ideal),
        bench::pct(t1.yield_proposed),
        bench::pct(t1.yield_ideal - t1.yield_proposed),
        bench::pct(t2.yield_ideal),
        bench::pct(t2.yield_proposed),
        bench::pct(t2.yield_ideal - t2.yield_proposed),
        bench::pct(t1.yield_no_buffer),
        bench::pct(t2.yield_no_buffer),
    });
  }
  table.print(std::cout);
  std::cout << "\nPaper reference: T1 yi = 67.11..85.97, yr = 0.25..2.37; "
               "T2 yi = 94.33..98.48, yr = 0.23..2.18;\n"
               "untuned yields 50% (T1) and 84.13% (T2) by construction.\n"
            << "campaign wall time: "
            << core::Table::num(result.total_seconds, 2) << " s\n"
            << "machine-readable output: " << json.write() << "\n";
  return 0;
}
