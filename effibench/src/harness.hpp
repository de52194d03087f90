#pragma once
// Shared plumbing of the effibench workloads: run configuration, the
// metric/outcome record every workload returns, timing and statistics
// helpers.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace effibench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 2016;
  double seconds = 10.0;  ///< measured-loop budget (at least one pass runs)
  bool trace = false;     ///< traced run: per-layer metrics instead of e2e
  bool smoke = false;     ///< tiny input sizes (self-test)
  /// Corrupt one output before it is checked (self-test: the checks must
  /// count it in `failed`).
  bool corrupt = false;
  std::size_t threads = 4;   ///< worker threads / tester connections
  std::size_t setup_reps = 3;  ///< set-ups per run; setup_s is the median
  std::string trace_file;    ///< Chrome trace-event JSON (traced runs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::size_t attempted = 0;  ///< output units checked
  std::size_t failed = 0;     ///< units whose output failed a check
  /// Uniform end-to-end set, identical names on every workload.
  std::vector<Metric> e2e;
  /// Per-layer set (traced runs), identical names on every workload.
  std::vector<Metric> layers;
  /// The workload's own named metrics, printed for people.
  std::vector<Metric> report;
  std::vector<std::string> notes;  ///< check failures, one line each

  /// Record a check over `units` outputs of which `bad` failed.
  void check(std::size_t units, std::size_t bad, const std::string& what) {
    attempted += units;
    failed += bad;
    if (bad > 0) notes.push_back(what);
  }
};

/// Linear-interpolated q-quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// The uniform end-to-end metrics (see BENCHMARK.json).
void add_e2e(Outcome& out, double setup_s, double items_per_s,
             const std::vector<double>& item_seconds);

/// The uniform per-layer metrics (see BENCHMARK.json / README.md): layer
/// self times and reconciliation from the tracer over [w0, w1], plus the
/// workload-supplied named values. Names the workload does not supply
/// report 0 (the layer does no work on this workload).
void add_layers(Outcome& out, const Tracer& tracer, Clock::time_point w0,
                Clock::time_point w1, double untraced_wall_s,
                const std::vector<Metric>& named);

Outcome run_tune_stream(const Config& cfg, Tracer& tracer);
Outcome run_prep_campaign(const Config& cfg, Tracer& tracer);
Outcome run_analytic_signoff(const Config& cfg, Tracer& tracer);
Outcome run_fleet_relay(const Config& cfg, Tracer& tracer);

}  // namespace effibench
