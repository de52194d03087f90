// Unit suite for the observability layer (src/obs): lock-free instrument
// exactness under contention (the suite runs under the ThreadSanitizer CI
// label), the pinned effitest-log-v1 line schema, registry snapshot
// monotonicity, and the power-of-two histogram math the serve latency
// percentiles moved onto. Also pins the io::json::Writer escapes and the
// parser's \uXXXX support the log/status emitters rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace effitest;

TEST(Metrics, CountersGaugesHistogramsAreExactUnderContention) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("test.count");
  obs::Gauge& gauge = registry.gauge("test.level");
  obs::Histogram& histogram = registry.histogram("test.latency");

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kIters; ++i) {
        counter.inc();
        gauge.add(1.0);
        histogram.record(1e-6 * static_cast<double>(1 + (i % 1000)));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter.value(), kThreads * kIters);
  EXPECT_EQ(gauge.value(), static_cast<double>(kThreads * kIters));
  EXPECT_EQ(histogram.count(), kThreads * kIters);
}

TEST(Metrics, HistogramQuantilesUsePowerOfTwoMidpoints) {
  // The exact math the serve latency percentiles always used: bucket
  // floor(log2(us)), quantile at the bucket's geometric midpoint.
  obs::Histogram h;
  h.record(100e-6);  // 100 us -> bucket 6 [64, 128)
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), std::exp2(6.5) * 1e-6);
  h.record(0.5);  // 500000 us -> bucket 18 [262144, 524288)
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), std::exp2(6.5) * 1e-6);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), std::exp2(18.5) * 1e-6);

  obs::Histogram tiny;
  tiny.record(1e-9);  // sub-microsecond -> bucket 0
  EXPECT_DOUBLE_EQ(tiny.snapshot().quantile(0.5), std::exp2(0.5) * 1e-6);

  EXPECT_EQ(obs::Histogram().snapshot().quantile(0.5), 0.0);  // empty
}

TEST(Metrics, HistogramSumAccumulatesRecordedSeconds) {
  obs::Histogram h;
  h.record(100e-6);
  h.record(0.5);
  h.record(1e-9);
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 100e-6 + 0.5 + 1e-9);
}

TEST(Metrics, PrometheusHistogramRendersCumulativeBuckets) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("serve.session_latency_us");
  h.record(100e-6);  // bucket 6 [64, 128) us
  h.record(100e-6);
  h.record(0.5);  // bucket 18

  const std::string text = obs::render_prometheus_text(registry.snapshot());
  EXPECT_NE(
      text.find("# TYPE effitest_serve_session_latency_us histogram\n"),
      std::string::npos)
      << text;
  // Cumulative series: below bucket 6 nothing, at its upper bound
  // (128 us) both fast events, +Inf everything.
  const std::string pname = "effitest_serve_session_latency_us";
  const auto le = [](std::size_t b) {
    return io::json::format_double(
        obs::HistogramSnapshot::bucket_upper_bound(b));
  };
  EXPECT_NE(text.find(pname + "_bucket{le=\"" + le(5) + "\"} 0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(pname + "_bucket{le=\"" + le(6) + "\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(pname + "_bucket{le=\"+Inf\"} 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find(pname + "_sum " +
                      io::json::format_double(100e-6 + 100e-6 + 0.5) + "\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(pname + "_count 3\n"), std::string::npos) << text;

  // The cumulative series is monotone and one line per bucket.
  std::size_t bucket_lines = 0;
  for (std::size_t pos = text.find(pname + "_bucket");
       pos != std::string::npos;
       pos = text.find(pname + "_bucket", pos + 1)) {
    ++bucket_lines;
  }
  EXPECT_EQ(bucket_lines, obs::HistogramSnapshot::kBuckets);
}

TEST(Metrics, SnapshotsAreMonotoneAndQuiescentSnapshotsEqual) {
  obs::MetricsRegistry registry;
  registry.counter("a").inc(5);
  registry.histogram("h").record(0.001);
  const obs::RegistrySnapshot mid = registry.snapshot();
  registry.counter("a").inc(2);
  registry.histogram("h").record(0.002);

  const obs::RegistrySnapshot fin = registry.snapshot();
  EXPECT_LE(mid.counter("a"), fin.counter("a"));
  EXPECT_EQ(fin.counter("a"), 7u);
  ASSERT_NE(fin.histogram("h"), nullptr);
  EXPECT_EQ(fin.histogram("h")->count, 2u);

  // Nothing recorded in between: the snapshots are identical.
  const obs::RegistrySnapshot again = registry.snapshot();
  EXPECT_EQ(again.counter("a"), fin.counter("a"));
  EXPECT_EQ(again.histogram("h")->buckets, fin.histogram("h")->buckets);

  // Missing names probe as 0 / nullptr, never throw.
  EXPECT_EQ(fin.counter("nope"), 0u);
  EXPECT_EQ(fin.gauge("nope"), 0.0);
  EXPECT_EQ(fin.histogram("nope"), nullptr);
}

TEST(Metrics, BoundGaugeComputesOnRead) {
  obs::MetricsRegistry registry;
  double depth = 3.0;
  registry.gauge("q").bind([&depth] { return depth; });
  EXPECT_EQ(registry.snapshot().gauge("q"), 3.0);
  depth = 7.0;
  EXPECT_EQ(registry.snapshot().gauge("q"), 7.0);
}

TEST(Metrics, RenderStatusJsonParsesBack) {
  obs::MetricsRegistry registry;
  registry.counter("serve.sessions_completed").inc(3);
  registry.gauge("serve.active_sessions").set(2.0);
  registry.histogram("serve.session_latency_us").record(100e-6);

  const std::string line = obs::render_status_json(registry.snapshot());
  io::json::Parser parser(line, "status");
  const io::json::Value doc = parser.parse();
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->string, "effitest-status-v1");
  ASSERT_NE(doc.find("counters"), nullptr);
  EXPECT_EQ(doc.find("counters")->find("serve.sessions_completed")->number,
            3.0);
  EXPECT_EQ(doc.find("gauges")->find("serve.active_sessions")->number, 2.0);
  const io::json::Value* h =
      doc.find("histograms")->find("serve.session_latency_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(h->find("p50")->number, std::exp2(6.5) * 1e-6);
  EXPECT_DOUBLE_EQ(h->find("p99")->number, std::exp2(6.5) * 1e-6);
}

TEST(StructuredLog, JsonGoldenLineAndRoundTrip) {
  std::ostringstream out;
  obs::StructuredLog log(out, obs::LogFormat::kJson);
  log.set_clock([] { return 12345.5; });
  log.emit("serve", "session_complete",
           {obs::LogField::u64("session", 3), obs::LogField::u64("chips", 4),
            obs::LogField::f64("seconds", 0.25),
            obs::LogField::boolean("ok", true),
            obs::LogField::str("reason", "drain \"now\"")});

  // The pinned effitest-log-v1 schema, byte for byte.
  EXPECT_EQ(out.str(),
            "{\"schema\": \"effitest-log-v1\", \"ts\": 12345.5, "
            "\"component\": \"serve\", \"event\": \"session_complete\", "
            "\"session\": 3, \"chips\": 4, \"seconds\": 0.25, "
            "\"ok\": true, \"reason\": \"drain \\\"now\\\"\"}\n");

  // And the line parses back through the shared parser.
  const std::string line = out.str().substr(0, out.str().size() - 1);
  io::json::Parser parser(line, "log");
  const io::json::Value doc = parser.parse();
  EXPECT_EQ(doc.find("schema")->string, "effitest-log-v1");
  EXPECT_EQ(doc.find("ts")->number, 12345.5);
  EXPECT_EQ(doc.find("component")->string, "serve");
  EXPECT_EQ(doc.find("event")->string, "session_complete");
  EXPECT_EQ(doc.find("session")->number, 3.0);
  EXPECT_TRUE(doc.find("ok")->boolean);
  EXPECT_EQ(doc.find("reason")->string, "drain \"now\"");
}

TEST(StructuredLog, TextFormatGoldenLine) {
  std::ostringstream out;
  obs::StructuredLog log(out, obs::LogFormat::kText);
  log.set_clock([] { return 2.5; });
  log.emit("campaign", "job_complete",
           {obs::LogField::u64("index", 1), obs::LogField::f64("ra", 95.5),
            obs::LogField::boolean("ok", false),
            obs::LogField::str("circuit", "s9234")});
  EXPECT_EQ(out.str(),
            "ts=2.5 campaign job_complete index=1 ra=95.5 ok=false "
            "circuit=s9234\n");
}

TEST(StructuredLog, ConcurrentEmitsInterleaveWholeLines) {
  std::ostringstream out;
  obs::StructuredLog log(out, obs::LogFormat::kJson);
  log.set_clock([] { return 1.0; });
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kEvents = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (std::size_t i = 0; i < kEvents; ++i) {
        log.emit("obs", "tick",
                 {obs::LogField::u64("thread", t),
                  obs::LogField::u64("i", i)});
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every line is complete, parseable JSON — characters never interleave.
  std::istringstream is(out.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    io::json::Parser parser(line, "log");
    const io::json::Value doc = parser.parse();
    ASSERT_NE(doc.find("event"), nullptr) << line;
    EXPECT_EQ(doc.find("event")->string, "tick");
    ++lines;
  }
  EXPECT_EQ(lines, kThreads * kEvents);
}

TEST(StructuredLog, OpenFileErrors) {
  EXPECT_THROW((void)obs::StructuredLog::open_file(
                   "/nonexistent-dir/zzz/x.log", obs::LogFormat::kJson),
               std::runtime_error);
}

TEST(JsonWriter, EscapesAndUnicodeRoundTrip) {
  io::json::Writer w;
  w.raw("{").key("s").string(std::string("a\"b\n\x01", 5)).raw("}");
  EXPECT_EQ(w.str(), "{\"s\": \"a\\\"b\\n\\u0001\"}");
  io::json::Parser parser(w.str(), "writer");
  const io::json::Value doc = parser.parse();
  ASSERT_NE(doc.find("s"), nullptr);
  EXPECT_EQ(doc.find("s")->string, std::string("a\"b\n\x01", 5));

  // \uXXXX escapes decode to UTF-8, surrogate pairs included.
  const std::string unicode = "{\"s\": \"\\u0041\\u00e9\\ud83d\\ude00\"}";
  io::json::Parser up(unicode, "unicode");
  EXPECT_EQ(up.parse().find("s")->string, "A\xc3\xa9\xf0\x9f\x98\x80");

  // An unpaired high surrogate is malformed, not silently mangled.
  const std::string bad = "{\"s\": \"\\ud800x\"}";
  io::json::Parser bp(bad, "bad");
  EXPECT_THROW((void)bp.parse(), io::json::ParseError);
}

TEST(JsonWriter, NumbersAndBooleans) {
  io::json::Writer w;
  w.raw("[").number(0.25).raw(", ").number(std::uint64_t{18446744073709551615u});
  w.raw(", ").boolean(true).raw(", ").number(std::nan("")).raw("]");
  EXPECT_EQ(w.str(), "[0.25, 18446744073709551615, true, null]");
}

}  // namespace
