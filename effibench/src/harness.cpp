#include "harness.hpp"

#include <sys/resource.h>

#include <map>

#include "trace.hpp"

namespace effibench {

namespace {

/// Layers the benchmark's spans call into (trace.hpp); linalg, lp and
/// io run only inside these calls.
constexpr const char* kLayers[] = {"scenario", "netlist", "timing",
                                   "stats",    "core",    "analytic",
                                   "parallel", "net",     "fleet",
                                   "obs"};

/// Workload-supplied per-layer values, in BENCHMARK.json order. A workload
/// on which a layer does no work leaves its values at 0.
const Metric kNamed[] = {
    {"scenario.resolve_s", 0, "s"},
    {"netlist.generate_s", 0, "s"},
    {"timing.model_s", 0, "s"},
    {"core.td_calibration_s", 0, "s"},
    {"core.td_calibration_dies", 0, "count"},
    {"timing.covariance_s", 0, "s"},
    {"core.grouping_s", 0, "s"},
    {"core.groups", 0, "count"},
    {"core.batching_s", 0, "s"},
    {"core.batches", 0, "count"},
    {"stats.gain_s", 0, "s"},
    {"core.hold_s", 0, "s"},
    {"timing.sample_us", 0, "us"},
    {"core.test_us", 0, "us"},
    {"core.predict_us", 0, "us"},
    {"core.configure_us", 0, "us"},
    {"core.final_test_us", 0, "us"},
    {"core.reference_us", 0, "us"},
    {"core.stimuli_per_chip", 0, "count"},
    {"core.infeasible_chips", 0, "count"},
    {"core.iter_reduction_pct", 0, "%"},
    {"core.yield_loss_pct", 0, "%"},
    {"parallel.busy_pct", 0, "%"},
    {"analytic.engine_s", 0, "s"},
    {"analytic.candidates", 0, "count"},
    {"analytic.mc_die_us", 0, "us"},
    {"analytic.tuned_mean_err_pct", 0, "%"},
    {"analytic.tuned_sigma_err_pct", 0, "%"},
    {"net.worker_session_ms", 0, "ms"},
    {"net.stimuli_per_session", 0, "count"},
    {"net.direct_session_ms", 0, "ms"},
    {"fleet.relay_ms", 0, "ms"},
    {"fleet.sessions_retried", 0, "count"},
    {"fleet.queue_depth_max", 0, "count"},
};

}  // namespace

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void add_e2e(Outcome& out, double setup_s, double items_per_s,
             const std::vector<double>& item_seconds) {
  out.e2e = {
      {"setup_s", setup_s, "s"},
      {"items_per_s", items_per_s, "1/s"},
      {"item_p50_ms", quantile(item_seconds, 0.50) * 1e3, "ms"},
      {"item_p90_ms", quantile(item_seconds, 0.90) * 1e3, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

void add_layers(Outcome& out, const Tracer& tracer, Clock::time_point w0,
                Clock::time_point w1, double untraced_wall_s,
                const std::vector<Metric>& named) {
  for (const Metric& m : kNamed) {
    Metric v = m;
    for (const Metric& n : named) {
      if (n.name == m.name) v.value = n.value;
    }
    out.layers.push_back(v);
  }
  const double wall = std::chrono::duration<double>(w1 - w0).count();
  const std::map<std::string, double> self = tracer.layer_self_seconds(w0, w1);
  double covered = 0.0;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    covered += s;
    out.layers.push_back({std::string(layer) + ".self_s", s, "s"});
  }
  out.layers.push_back({"unattributed_s", wall - covered, "s"});
  out.layers.push_back(
      {"reconciled_pct", wall > 0.0 ? covered / wall * 100.0 : 0.0, "%"});
  out.layers.push_back({"trace_overhead_s", wall - untraced_wall_s, "s"});
}

}  // namespace effibench
