// effibench — the repository benchmark. One process runs one workload:
//
//   effibench --workload <tune_stream|prep_campaign|analytic_signoff|
//                         fleet_relay>
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-file PATH]
//             [--smoke] [--corrupt]
//
// It prints the workload's own named metrics for people, then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics, or with --trace 1 the per-layer metrics of the
// traced run (whose spans are also written to --trace-file as Chrome
// trace-event JSON). --smoke shrinks every input for the self-test;
// --corrupt damages one output so the self-test can see it counted.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "trace.hpp"

namespace {

using namespace effibench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "effibench: " << why
            << "\nusage: effibench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-file PATH] [--smoke] [--corrupt]\n";
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config cfg;
  const unsigned hw = std::thread::hardware_concurrency();
  cfg.threads = std::min<std::size_t>(4, hw == 0 ? 1 : hw);
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    }
    const auto next = [&]() -> std::string {
      if (eq != std::string::npos) return value;
      if (i + 1 >= argc) usage(key + " needs a value");
      return argv[++i];
    };
    try {
      if (key == "--workload") {
        cfg.workload = next();
      } else if (key == "--seed") {
        cfg.seed = std::stoull(next());
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(next());
      } else if (key == "--trace") {
        cfg.trace = next() != "0";
      } else if (key == "--trace-file") {
        cfg.trace_file = next();
      } else if (key == "--smoke") {
        cfg.smoke = true;
      } else if (key == "--corrupt") {
        cfg.corrupt = true;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (cfg.workload.empty()) usage("--workload is required");
  if (cfg.smoke) cfg.setup_reps = 1;
  return cfg;
}

void print_json(const Outcome& out, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              out.failed == 0 && out.attempted > 0 ? "true" : "false",
              out.attempted, out.failed);
  const auto& metrics = trace ? out.layers : out.e2e;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse(argc, argv);
  Tracer tracer(cfg.trace);
  Outcome out;
  try {
    if (cfg.workload == "tune_stream") {
      out = run_tune_stream(cfg, tracer);
    } else if (cfg.workload == "prep_campaign") {
      out = run_prep_campaign(cfg, tracer);
    } else if (cfg.workload == "analytic_signoff") {
      out = run_analytic_signoff(cfg, tracer);
    } else if (cfg.workload == "fleet_relay") {
      out = run_fleet_relay(cfg, tracer);
    } else {
      usage("unknown workload " + cfg.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "effibench: " << cfg.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (cfg.trace && !cfg.trace_file.empty() &&
      !tracer.write_chrome(cfg.trace_file)) {
    std::cerr << "effibench: cannot write " << cfg.trace_file << "\n";
    return 1;
  }

  std::printf("# effibench %s seed=%llu threads=%zu trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.threads, cfg.trace ? 1 : 0);
  for (const Metric& m : out.report) {
    std::printf("%-26s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-26s %14zu %s\n", "ops", out.attempted, "count");
  std::printf("%-26s %14zu %s\n", "ops_failed", out.failed, "count");
  for (const std::string& note : out.notes) {
    std::printf("check failed: %s\n", note.c_str());
  }
  if (cfg.trace) {
    for (const Metric& m : out.layers) {
      std::printf("%-30s %.17g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  print_json(out, cfg.trace);
  return 0;
}
