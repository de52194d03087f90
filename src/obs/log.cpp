#include "obs/log.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "io/json.hpp"

namespace effitest::obs {

LogField LogField::str(std::string key, std::string value) {
  LogField f;
  f.key = std::move(key);
  f.kind = Kind::kString;
  f.string_value = std::move(value);
  return f;
}

LogField LogField::u64(std::string key, std::uint64_t value) {
  LogField f;
  f.key = std::move(key);
  f.kind = Kind::kUint;
  f.uint_value = value;
  return f;
}

LogField LogField::f64(std::string key, double value) {
  LogField f;
  f.key = std::move(key);
  f.kind = Kind::kDouble;
  f.double_value = value;
  return f;
}

LogField LogField::boolean(std::string key, bool value) {
  LogField f;
  f.key = std::move(key);
  f.kind = Kind::kBool;
  f.bool_value = value;
  return f;
}

namespace {

double system_clock_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StructuredLog::StructuredLog(std::ostream& out, LogFormat format)
    : out_(&out), format_(format), clock_(system_clock_seconds) {}

StructuredLog::StructuredLog(std::ofstream file, LogFormat format)
    : file_(std::move(file)),
      out_(&file_),
      format_(format),
      clock_(system_clock_seconds) {}

std::unique_ptr<StructuredLog> StructuredLog::open_file(
    const std::string& path, LogFormat format) {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("log: cannot open " + path + " for writing");
  }
  // std::make_unique cannot reach the private ctor.
  return std::unique_ptr<StructuredLog>(
      new StructuredLog(std::move(file), format));
}

void StructuredLog::set_clock(Clock clock) {
  const std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

std::string StructuredLog::format_line(
    double ts, const std::string& component, const std::string& event,
    std::initializer_list<LogField> fields) const {
  if (format_ == LogFormat::kJson) {
    io::json::Writer w;
    w.raw("{").key("schema").string("effitest-log-v1");
    w.raw(", ").key("ts").number(ts);
    w.raw(", ").key("component").string(component);
    w.raw(", ").key("event").string(event);
    for (const LogField& f : fields) {
      w.raw(", ").key(f.key);
      switch (f.kind) {
        case LogField::Kind::kString: w.string(f.string_value); break;
        case LogField::Kind::kUint: w.number(f.uint_value); break;
        case LogField::Kind::kDouble: w.number(f.double_value); break;
        case LogField::Kind::kBool: w.boolean(f.bool_value); break;
      }
    }
    w.raw("}");
    return w.take();
  }
  std::string line = "ts=" + io::json::format_double(ts) + " " + component +
                     " " + event;
  for (const LogField& f : fields) {
    line += " " + f.key + "=";
    switch (f.kind) {
      case LogField::Kind::kString: line += f.string_value; break;
      case LogField::Kind::kUint:
        line += std::to_string(f.uint_value);
        break;
      case LogField::Kind::kDouble:
        line += io::json::format_double(f.double_value);
        break;
      case LogField::Kind::kBool: line += f.bool_value ? "true" : "false";
        break;
    }
  }
  return line;
}

void StructuredLog::emit(const std::string& component,
                         const std::string& event,
                         std::initializer_list<LogField> fields) {
  // Read the clock and format outside the lock; take the lock only for
  // the atomic whole-line append so concurrent sessions never interleave.
  double ts = 0.0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ts = clock_ ? clock_() : 0.0;
  }
  const std::string line = format_line(ts, component, event, fields);
  const std::lock_guard<std::mutex> lock(mutex_);
  *out_ << line << '\n';
  out_->flush();
}

}  // namespace effitest::obs
