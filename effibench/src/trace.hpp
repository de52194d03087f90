#pragma once
// In-memory span recorder for the traced run.
//
// A span is one timed call from the benchmark into a library module; its
// name is "<layer>.<what>" where <layer> is the src/ module called
// (scenario, netlist, timing, stats, core, analytic, parallel, net, fleet,
// obs). Spans are kept in memory and written as Chrome trace-event JSON at
// the end of the run. A disabled tracer records nothing and a Span on it
// costs one branch.
//
// Self time is attributed on the wall clock: at every instant of a window,
// each thread that is inside a span gives its innermost span's layer an
// equal share of that instant. The shares therefore add up to the part of
// the window covered by spans on some thread; the rest is unattributed.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace effibench {

class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::uint32_t tid = 0;
    std::uint32_t depth = 0;  ///< nesting depth on its thread
    std::int64_t t0 = 0;      ///< ns since the tracer's epoch
    std::int64_t t1 = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span; `name` must be a string literal.
  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;  ///< null when tracing is off
    const char* name_;
    std::int64_t t0_ = 0;
    std::uint32_t depth_ = 0;
  };

  /// Wall-clock self seconds per layer over [w0, w1] (see the header
  /// comment); the shares sum to the covered part of the window.
  [[nodiscard]] std::map<std::string, double> layer_self_seconds(
      Clock::time_point w0, Clock::time_point w1) const;

  /// Summed duration (seconds) and count of the spans called `name`.
  [[nodiscard]] std::pair<double, std::size_t> total(
      const std::string& name) const;

  /// Chrome trace-event JSON ("X" events, one lane per thread). Returns
  /// false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;  ///< guarded by mutex_
};

}  // namespace effibench
