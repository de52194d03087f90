#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace effibench {

namespace {

std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

thread_local std::uint32_t t_depth = 0;

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* name)
    : tracer_(tracer.enabled() ? &tracer : nullptr), name_(name) {
  if (tracer_ == nullptr) return;
  depth_ = t_depth++;
  t0_ = tracer_->ns(Clock::now());
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const std::int64_t t1 = tracer_->ns(Clock::now());
  --t_depth;
  const Record r{name_, this_thread_id(), depth_, t0_, t1};
  const std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->records_.push_back(r);
}

std::map<std::string, double> Tracer::layer_self_seconds(
    Clock::time_point w0, Clock::time_point w1) const {
  const std::int64_t lo = ns(w0);
  const std::int64_t hi = ns(w1);
  std::vector<Record> recs;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    recs = records_;
  }

  struct Event {
    std::int64_t t;
    bool begin;
    std::uint32_t depth;
    std::size_t rec;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const std::int64_t a = std::max(recs[i].t0, lo);
    const std::int64_t b = std::min(recs[i].t1, hi);
    if (a >= b) continue;
    events.push_back({a, true, recs[i].depth, i});
    events.push_back({b, false, recs[i].depth, i});
  }
  // At one instant: ends before begins, inner ends first, outer begins
  // first — so every thread's stack pops exactly what it pushed.
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    if (x.t != y.t) return x.t < y.t;
    if (x.begin != y.begin) return !x.begin;
    return x.begin ? x.depth < y.depth : x.depth > y.depth;
  });

  std::map<std::uint32_t, std::vector<std::size_t>> stacks;
  std::map<std::string, double> out;
  std::size_t active = 0;  // threads with a non-empty stack
  std::int64_t prev = lo;
  for (const Event& e : events) {
    if (e.t > prev && active > 0) {
      const double share =
          static_cast<double>(e.t - prev) * 1e-9 / static_cast<double>(active);
      for (const auto& [tid, stack] : stacks) {
        if (!stack.empty()) out[layer_of(recs[stack.back()].name)] += share;
      }
    }
    prev = e.t;
    std::vector<std::size_t>& stack = stacks[recs[e.rec].tid];
    if (e.begin) {
      if (stack.empty()) ++active;
      stack.push_back(e.rec);
    } else {
      const auto it = std::find(stack.begin(), stack.end(), e.rec);
      if (it != stack.end()) stack.erase(it);
      if (stack.empty()) --active;
    }
  }
  return out;
}

std::pair<double, std::size_t> Tracer::total(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  std::size_t n = 0;
  for (const Record& r : records_) {
    if (name == r.name) {
      sum += static_cast<double>(r.t1 - r.t0) * 1e-9;
      ++n;
    }
  }
  return {sum, n};
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u}%s\n",
                 r.name, layer_of(r.name).c_str(),
                 static_cast<double>(r.t0) * 1e-3,
                 static_cast<double>(r.t1 - r.t0) * 1e-3, r.tid,
                 i + 1 < records_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace effibench
