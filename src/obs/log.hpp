#pragma once
// Structured event log: one line per event, text or JSON. DESIGN.md §14.
//
// JSON lines follow `effitest-log-v1`:
//
//   {"schema": "effitest-log-v1", "ts": 1722959000.125, "component":
//    "serve", "event": "session_complete", "session": 3, "chips": 4, ...}
//
// `ts` is Unix seconds (system clock) with sub-second precision; the
// remaining keys are the event's fields in emission order. Text format is
// the same data as `ts=... component event key=value ...` for eyeballing.
//
// Zero-overhead-when-disabled rule: call sites hold a StructuredLog* that
// is nullptr unless the user asked for logging (`--log-format/--log-file`)
// and guard every emit with `if (log)`. The disabled path is one pointer
// test — the perf gates in bench/baselines must hold with logging off.
//
// Thread-safety: emit() formats outside the lock and writes the finished
// line under one mutex, so concurrent sessions interleave whole lines,
// never characters.

#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

namespace effitest::obs {

enum class LogFormat { kText, kJson };

/// One key/value field of an event. Build with the static factories so
/// the value's JSON type (string/integer/double/bool) is explicit.
struct LogField {
  enum class Kind { kString, kUint, kDouble, kBool };

  static LogField str(std::string key, std::string value);
  static LogField u64(std::string key, std::uint64_t value);
  static LogField f64(std::string key, double value);
  static LogField boolean(std::string key, bool value);

  std::string key;
  Kind kind = Kind::kString;
  std::string string_value;
  std::uint64_t uint_value = 0;
  double double_value = 0.0;
  bool bool_value = false;
};

class StructuredLog {
 public:
  /// Unix-seconds clock, injectable so the schema golden test can pin an
  /// exact output line. The default reads std::chrono::system_clock.
  using Clock = std::function<double()>;

  /// Log to a caller-owned stream (the CLI passes std::clog for the
  /// default `--log-format` without `--log-file`).
  StructuredLog(std::ostream& out, LogFormat format);

  /// Log to a file (created/truncated). Throws std::runtime_error when
  /// the path cannot be opened.
  static std::unique_ptr<StructuredLog> open_file(const std::string& path,
                                                  LogFormat format);

  void set_clock(Clock clock);

  void emit(const std::string& component, const std::string& event,
            std::initializer_list<LogField> fields);

  /// The exact line emit() would write (no trailing newline) at time
  /// `ts` — the formatting core, exposed for the golden test.
  [[nodiscard]] std::string format_line(
      double ts, const std::string& component, const std::string& event,
      std::initializer_list<LogField> fields) const;

 private:
  explicit StructuredLog(std::ofstream file, LogFormat format);

  std::mutex mutex_;
  std::ofstream file_;   ///< owns the sink in the open_file case
  std::ostream* out_;    ///< always valid; aliases file_ or the ctor stream
  LogFormat format_;
  Clock clock_;
};

}  // namespace effitest::obs
