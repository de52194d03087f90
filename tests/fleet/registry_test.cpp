// Unit suite for the fleet worker registry (fleet/registry.hpp): the
// three-state health machine stepped with an injected prober (no
// wall-clock), deterministic least-loaded routing, the report_failure
// fast path, the status/banner wire parsers, the supervisor's banner scrape
// past an over-long line, and one integration round against a real
// TuneServeLoop's in-band status endpoint.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <optional>
#include <string>

#include "fleet/registry.hpp"
#include "fleet/supervisor.hpp"
#include "fleet_test_common.hpp"
#include "net/serve.hpp"

namespace {

using namespace effitest;
using fleet::ProbeResult;
using fleet::WorkerEndpoint;
using fleet::WorkerHealth;
using fleet::WorkerRegistry;

WorkerEndpoint ep(std::uint16_t port) { return {"127.0.0.1", port}; }

TEST(WorkerRegistry, HealthWalksLiveDegradedDeadAndReadmits) {
  WorkerRegistry registry;
  const std::size_t slot = registry.add_worker(ep(4242));
  EXPECT_EQ(registry.health(slot), WorkerHealth::kLive);

  bool answer = false;
  registry.set_prober([&](const WorkerEndpoint&) {
    ProbeResult r;
    r.ok = answer;
    return r;
  });

  // Failures 1..2: degraded at kDegradedAfter (1), still degraded at 2.
  static_assert(fleet::kDegradedAfter == 1 && fleet::kDeadAfter == 3);
  registry.probe_all();
  EXPECT_EQ(registry.health(slot), WorkerHealth::kDegraded);
  registry.probe_all();
  EXPECT_EQ(registry.health(slot), WorkerHealth::kDegraded);
  // Failure 3: dead.
  registry.probe_all();
  EXPECT_EQ(registry.health(slot), WorkerHealth::kDead);
  EXPECT_EQ(registry.count(WorkerHealth::kDead), 1u);

  // One successful probe re-admits from dead, clean failure count: the
  // next single failure only degrades it, never straight back to dead.
  answer = true;
  registry.probe_all();
  EXPECT_EQ(registry.health(slot), WorkerHealth::kLive);
  answer = false;
  registry.probe_all();
  EXPECT_EQ(registry.health(slot), WorkerHealth::kDegraded);
}

TEST(WorkerRegistry, ReportFailureIsAnImmediateDemotion) {
  WorkerRegistry registry;
  const std::size_t slot = registry.add_worker(ep(4242));
  registry.set_prober([](const WorkerEndpoint&) {
    ProbeResult r;
    r.ok = true;
    return r;
  });

  registry.report_failure(slot);
  EXPECT_EQ(registry.health(slot), WorkerHealth::kDead);
  EXPECT_EQ(registry.acquire(), std::nullopt);

  // The prober re-admits the worker the moment it answers again.
  registry.probe_all();
  EXPECT_EQ(registry.health(slot), WorkerHealth::kLive);
}

TEST(WorkerRegistry, RoutingIsLeastLoadedWithLowestIndexTies) {
  WorkerRegistry registry;
  for (std::uint16_t p = 1; p <= 3; ++p) (void)registry.add_worker(ep(p));

  // Fresh registry: ties broken by the lowest index, in order.
  EXPECT_EQ(registry.acquire(), std::optional<std::size_t>(0));
  EXPECT_EQ(registry.acquire(), std::optional<std::size_t>(1));
  EXPECT_EQ(registry.acquire(), std::optional<std::size_t>(2));
  EXPECT_EQ(registry.in_flight(0), 1u);

  // All tied at one in flight again: back to slot 0.
  EXPECT_EQ(registry.acquire(), std::optional<std::size_t>(0));
  // Releasing slot 1 makes it the unique least-loaded worker.
  registry.release(1);
  EXPECT_EQ(registry.acquire(), std::optional<std::size_t>(1));
}

TEST(WorkerRegistry, DegradedWorkersAreALastResortAndDeadOnesNever) {
  WorkerRegistry registry;
  const std::size_t a = registry.add_worker(ep(1));
  const std::size_t b = registry.add_worker(ep(2));

  // Degrade slot a only (the prober keys off the endpoint it is handed).
  registry.set_prober([](const WorkerEndpoint& e) {
    ProbeResult r;
    r.ok = e.port != 1;
    return r;
  });
  registry.probe_all();
  ASSERT_EQ(registry.health(a), WorkerHealth::kDegraded);
  ASSERT_EQ(registry.health(b), WorkerHealth::kLive);

  // While b is live, every acquisition lands on b — even as its load
  // grows past the idle degraded slot's.
  EXPECT_EQ(registry.acquire(), std::optional<std::size_t>(b));
  EXPECT_EQ(registry.acquire(), std::optional<std::size_t>(b));

  // Nothing live: the degraded slot is used rather than refusing.
  registry.report_failure(b);
  EXPECT_EQ(registry.acquire(), std::optional<std::size_t>(a));

  // Nothing live or degraded: unroutable.
  registry.report_failure(a);
  EXPECT_EQ(registry.acquire(), std::nullopt);
}

TEST(WorkerRegistry, UnknownEndpointStartsDeadUntilUpdated) {
  WorkerRegistry registry;
  const std::size_t slot = registry.add_worker(ep(0));  // pre-banner spawn
  EXPECT_EQ(registry.health(slot), WorkerHealth::kDead);
  EXPECT_EQ(registry.acquire(), std::nullopt);

  // The supervisor's banner callback points the slot somewhere real and
  // re-admits it.
  registry.update_endpoint(slot, ep(4242));
  EXPECT_EQ(registry.health(slot), WorkerHealth::kLive);
  EXPECT_EQ(registry.endpoint(slot).port, 4242);
  EXPECT_EQ(registry.acquire(), std::optional<std::size_t>(slot));
}

TEST(WorkerRegistry, ProbeGaugesSurfaceTheWorkersSelfReport) {
  WorkerRegistry registry;
  const std::size_t slot = registry.add_worker(ep(1));
  registry.set_prober([](const WorkerEndpoint&) {
    ProbeResult r;
    r.ok = true;
    r.queue_depth = 3.0;
    return r;
  });
  registry.probe_all();
  EXPECT_EQ(registry.probed_queue_depth(slot), 3.0);
}

TEST(ParseWorkerStatus, AcceptsStatusV1AndExtractsServeGauges) {
  const ProbeResult r = fleet::parse_worker_status(
      R"({"schema": "effitest-status-v1", "counters": {}, )"
      R"("gauges": {"serve.queue_depth": 5, "serve.active_sessions": 2}, )"
      R"("histograms": {}})");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.queue_depth, 5.0);
}

TEST(ParseWorkerStatus, MissingGaugesAreZeroNotFailure) {
  const ProbeResult r = fleet::parse_worker_status(
      R"({"schema": "effitest-status-v1", "counters": {}, "gauges": {}})");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.queue_depth, 0.0);
}

TEST(ParseWorkerStatus, RejectsMalformedAndForeignPayloads) {
  EXPECT_FALSE(fleet::parse_worker_status("").ok);
  EXPECT_FALSE(fleet::parse_worker_status("not json").ok);
  EXPECT_FALSE(fleet::parse_worker_status("{}").ok);
  EXPECT_FALSE(
      fleet::parse_worker_status(R"({"schema": "something-else"})").ok);
  EXPECT_FALSE(fleet::parse_worker_status(R"({"schema": 7})").ok);
  EXPECT_FALSE(fleet::parse_worker_status(R"({"schema": )").ok);
}

TEST(ParseServingBanner, AcceptsTheServeBannerShape) {
  const auto e = fleet::parse_serving_banner("serving on 127.0.0.1:4242");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->host, "127.0.0.1");
  EXPECT_EQ(e->port, 4242);
}

TEST(ParseServingBanner, RejectsEverythingElse) {
  EXPECT_FALSE(fleet::parse_serving_banner("").has_value());
  EXPECT_FALSE(fleet::parse_serving_banner("served 2 session(s)").has_value());
  EXPECT_FALSE(fleet::parse_serving_banner("serving on ").has_value());
  EXPECT_FALSE(fleet::parse_serving_banner("serving on 127.0.0.1").has_value());
  EXPECT_FALSE(
      fleet::parse_serving_banner("serving on 127.0.0.1:").has_value());
  EXPECT_FALSE(
      fleet::parse_serving_banner("serving on :4242").has_value());
  EXPECT_FALSE(
      fleet::parse_serving_banner("serving on 127.0.0.1:0").has_value());
  EXPECT_FALSE(
      fleet::parse_serving_banner("serving on 127.0.0.1:65536").has_value());
  EXPECT_FALSE(
      fleet::parse_serving_banner("serving on 127.0.0.1:42x").has_value());
}

TEST(ProcessSupervisor, FindsTheBannerAfterAnOverlongLine) {
  // A child floods 200 KB without a newline (past io::kMaxLineBytes), then
  // announces itself: the supervisor discards the flood through its '\n'
  // and still scrapes the banner that follows.
  fleet::SupervisorOptions options;
  options.argv = {"/bin/sh", "-c",
                  "printf '%0200000d\\nserving on 127.0.0.1:4242\\n' 0; "
                  "exec sleep 60"};
  options.children = 1;
  options.restart_on_crash = false;
  options.startup_timeout_seconds = 30.0;  // start() throws if never found
  std::optional<WorkerEndpoint> announced;
  fleet::ProcessSupervisor supervisor(
      options, [&announced](std::size_t, const WorkerEndpoint& endpoint) {
        announced = endpoint;
      });
  supervisor.start();
  ASSERT_TRUE(announced.has_value());
  EXPECT_EQ(announced->port, 4242);
  supervisor.drain();
}

TEST(WorkerRegistry, DefaultProberSpeaksToARealServeLoop) {
  net::ServeOptions soptions;
  soptions.workers = 1;
  net::TuneServeLoop loop(fleet_test::holder().service, soptions);
  loop.start();

  WorkerRegistry registry;
  const std::size_t slot =
      registry.add_worker({loop.host(), loop.port()});

  // The in-band `status` request on the serve port is the health probe —
  // no extra listener needed on the worker.
  registry.probe_all();
  EXPECT_EQ(registry.health(slot), WorkerHealth::kLive);

  loop.request_drain();
  loop.wait();

  // The drained worker stops answering: degraded after one miss, dead
  // after three, exactly like a crashed process.
  registry.probe_all();
  EXPECT_EQ(registry.health(slot), WorkerHealth::kDegraded);
  registry.probe_all();
  EXPECT_EQ(registry.health(slot), WorkerHealth::kDegraded);
  registry.probe_all();
  EXPECT_EQ(registry.health(slot), WorkerHealth::kDead);
}

}  // namespace
