// Integration suite for the fleet front balancer (fleet/balancer.hpp):
// sessions relayed through the balancer must reproduce `tune --simulate`
// reports byte-for-byte — including a session whose worker dies mid-flight
// or mid-burst and is replayed on a survivor, and a session whose worker
// process is SIGKILL'd outright. Plus the failure edges (fleet exhaustion,
// seed mismatch, deterministic worker rejections, a fatal line mid-burst,
// flooding and half-open peers) and the fleet status endpoints. Runs
// under the ThreadSanitizer CI label (`fleet`): the relay is two threads
// per session against a shared registry.
//
// Everything binds 127.0.0.1 port 0 (kernel-chosen), so parallel ctest
// invocations never collide.

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fleet/balancer.hpp"
#include "fleet/registry.hpp"
#include "fleet/supervisor.hpp"
#include "fleet_test_common.hpp"
#include "io/json.hpp"
#include "io/tune_protocol.hpp"
#include "net/client.hpp"
#include "net/serve.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace effitest;
using fleet_test::flood;
using fleet_test::holder;
using fleet_test::simulated_report_lines;
using fleet_test::sorted_by_chip;

fleet::BalancerOptions balancer_options() {
  fleet::BalancerOptions o;
  o.relay_workers = 4;
  return o;
}

TEST(FleetBalancer, RelayedSessionsMatchSimulatedReports) {
  net::ServeOptions soptions;
  soptions.workers = 2;
  net::TuneServeLoop worker_a(holder().service, soptions);
  net::TuneServeLoop worker_b(holder().service, soptions);
  worker_a.start();
  worker_b.start();

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({worker_a.host(), worker_a.port()});
  (void)registry.add_worker({worker_b.host(), worker_b.port()});
  fleet::FleetBalancer balancer(registry, balancer_options());
  balancer.start();

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kChips = 3;
  const std::vector<std::string> golden = simulated_report_lines(kChips);
  ASSERT_EQ(golden.size(), kChips);

  std::vector<std::optional<net::ClientResult>> results(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        net::ClientOptions copts;
        copts.chips = kChips;
        results[i] = net::run_loopback_client("127.0.0.1", balancer.port(),
                                              holder().problem, copts);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  balancer.request_drain();
  balancer.wait();
  worker_a.request_drain();
  worker_b.request_drain();
  worker_a.wait();
  worker_b.wait();

  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(results[i].has_value()) << "client " << i << " threw";
    EXPECT_EQ(sorted_by_chip(results[i]->report_lines), golden)
        << "client " << i;
    EXPECT_TRUE(results[i]->error_lines.empty());
  }
  // Both workers actually served: least-loaded routing spreads concurrent
  // sessions instead of piling onto slot 0.
  EXPECT_EQ(worker_a.metrics().counter(net::kMetricSessionsCompleted) +
                worker_b.metrics().counter(net::kMetricSessionsCompleted),
            kClients);
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRouted), kClients);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), kClients);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 0u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRetried), 0u);
  EXPECT_EQ(m.gauge(fleet::kFleetActiveSessions), 0.0);
  EXPECT_EQ(m.gauge(fleet::kFleetWorkersLive), 2.0);
  EXPECT_GT(m.gauge(fleet::kFleetSessionsPerSec), 0.0);
}

/// Slot 0 is a proxy in front of a genuine worker: it forwards the hello,
/// lets `die` forward a prefix of the REAL server lines and part of the
/// next one, then hard-closes — a deterministic mid-session, mid-line
/// death with genuine bytes already forwarded. Slot 1 is the survivor. The
/// migrated session must replay its backlog, discard exactly the prefix
/// the client already holds, and still match the golden transcript.
void expect_migration_matches_golden(
    const std::function<void(net::SocketStream& backend,
                             net::SocketStream& client_side)>& die) {
  net::ServeOptions soptions;
  soptions.workers = 2;
  net::TuneServeLoop survivor(holder().service, soptions);
  survivor.start();

  net::Listener dying("127.0.0.1", 0, 8);
  std::thread proxy([&] {
    net::Socket conn = dying.accept();
    if (!conn.valid()) return;
    net::SocketStream client_side(std::move(conn));
    std::string hello;
    if (!std::getline(client_side, hello)) return;
    net::SocketStream backend(
        net::connect_to(survivor.host(), survivor.port()));
    backend << hello << '\n';
    backend.flush();
    die(backend, client_side);
  });

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({dying.host(), dying.port()});
  (void)registry.add_worker({survivor.host(), survivor.port()});
  fleet::FleetBalancer balancer(registry, balancer_options());
  balancer.start();

  constexpr std::size_t kChips = 2;
  const std::vector<std::string> golden = simulated_report_lines(kChips);
  net::ClientOptions copts;
  copts.chips = kChips;
  const net::ClientResult result = net::run_loopback_client(
      "127.0.0.1", balancer.port(), holder().problem, copts);
  proxy.join();

  balancer.request_drain();
  balancer.wait();
  survivor.request_drain();
  survivor.wait();

  EXPECT_EQ(sorted_by_chip(result.report_lines), golden);
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRetried), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 0u);
  // The relay's fast path marked the dead proxy's slot, no prober needed.
  EXPECT_EQ(registry.health(0), fleet::WorkerHealth::kDead);
}

TEST(FleetBalancer, SessionMigratesWhenItsWorkerDiesMidFlight) {
  // Greeting + header + one stimulus line, one flush each, then death in
  // the middle of the second: the torn line must never reach the client.
  expect_migration_matches_golden([](net::SocketStream& backend,
                                     net::SocketStream& client_side) {
    std::string line;
    for (int i = 0; i < 3 && std::getline(backend, line); ++i) {
      client_side << line << '\n';
      client_side.flush();
    }
    if (std::getline(backend, line)) {
      client_side << line.substr(0, line.size() / 2);
      client_side.flush();
    }
  });
}

TEST(FleetBalancer, SessionMigratesWhenItsWorkerDiesMidBurst) {
  // The greeting, then header + stimulus + half of the next line in ONE
  // flush: the relay reads two whole lines and a torn one from a single
  // recv. It must send exactly the two whole lines, count exactly those
  // as forwarded, and migrate on the torn one.
  expect_migration_matches_golden([](net::SocketStream& backend,
                                     net::SocketStream& client_side) {
    std::string line;
    if (!std::getline(backend, line)) return;
    client_side << line << '\n';
    client_side.flush();
    for (int i = 0; i < 2 && std::getline(backend, line); ++i) {
      client_side << line << '\n';
    }
    if (std::getline(backend, line)) {
      client_side << line.substr(0, line.size() / 2);
    }
    client_side.flush();
  });
}

TEST(FleetBalancer, WorkerErrorMidBurstEndsTheRelayAfterIt) {
  // A worker's burst carries an `error -` line with more lines behind it,
  // all in one flush. The client receives everything up to and including
  // the error and nothing after it; the fatal line is never retried.
  const std::string greeting = io::format_greeting(
      {0, holder().service.monte_carlo_seed_base()});
  const std::vector<std::string> sent = {
      greeting,
      "effitest-tune-v1 chips=1 np=6 nb=2 td=900",
      "stimulus 0 0 108.5 steps 13 5 arm 0 3 4",
      io::format_error("tune: response stream ended"),
      "stimulus 0 1 108.5 steps 13 5 arm 0 3 4",
      "bye",
  };
  net::Listener faulty("127.0.0.1", 0, 8);
  std::thread fake([&] {
    net::Socket conn = faulty.accept();
    if (!conn.valid()) return;
    net::SocketStream stream(std::move(conn));
    std::string line;
    if (!std::getline(stream, line)) return;
    for (const std::string& l : sent) stream << l << '\n';
    stream.flush();
    while (std::getline(stream, line)) {
    }  // until the balancer hangs up
  });

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({faulty.host(), faulty.port()});
  fleet::FleetBalancer balancer(registry, balancer_options());
  balancer.start();

  std::vector<std::string> received;
  {
    net::SocketStream stream(net::connect_to("127.0.0.1", balancer.port()));
    stream << io::format_hello({1, 0, false}) << '\n';
    stream.flush();
    std::string line;
    while (std::getline(stream, line)) received.push_back(line);
  }
  fake.join();
  balancer.request_drain();
  balancer.wait();

  EXPECT_EQ(received, std::vector<std::string>(sent.begin(), sent.begin() + 4));
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 0u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRetried), 0u);
}

TEST(FleetBalancer, ExhaustedRetriesSurfaceAsAFleetError) {
  // One slot, pointing at a port with nothing behind it: every attach
  // fails, the bounded retries run out, and the client gets one clear
  // fatal error line instead of a hang or a bare disconnect.
  std::uint16_t dead_port = 0;
  {
    net::Listener gone("127.0.0.1", 0, 1);
    dead_port = gone.port();
  }
  fleet::WorkerRegistry registry;
  (void)registry.add_worker({"127.0.0.1", dead_port});
  fleet::BalancerOptions options = balancer_options();
  options.max_session_retries = 1;
  fleet::FleetBalancer balancer(registry, options);
  balancer.start();

  std::string reply;
  {
    net::SocketStream stream(net::connect_to("127.0.0.1", balancer.port()));
    stream << "hello effitest-tune-v1 chips=1\n";
    stream.flush();
    ASSERT_TRUE(std::getline(stream, reply));
  }
  balancer.request_drain();
  balancer.wait();

  EXPECT_EQ(reply.rfind("error - fleet exhausted", 0), 0u) << reply;
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 0u);
}

TEST(FleetBalancer, SeedMismatchAbortsInsteadOfDivergingBytes) {
  // The first worker greets with a bogus seed base and dies; the real
  // replacement answers with the true base. Replaying would hand the
  // client divergent bytes, so the balancer must abort the session with a
  // fatal error instead.
  net::ServeOptions soptions;
  soptions.workers = 1;
  net::TuneServeLoop real(holder().service, soptions);
  real.start();

  const std::uint64_t bogus_seed =
      holder().service.monte_carlo_seed_base() + 1;
  net::Listener liar("127.0.0.1", 0, 8);
  std::thread fake([&] {
    net::Socket conn = liar.accept();
    if (!conn.valid()) return;
    net::SocketStream stream(std::move(conn));
    std::string hello;
    if (!std::getline(stream, hello)) return;
    stream << "serve effitest-tune-v1 session=0 seed=" << bogus_seed << '\n';
    stream.flush();
  });  // stream closes: mid-session death right after the greeting

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({liar.host(), liar.port()});
  (void)registry.add_worker({real.host(), real.port()});
  fleet::FleetBalancer balancer(registry, balancer_options());
  balancer.start();

  std::string greeting, error_line;
  {
    net::SocketStream stream(net::connect_to("127.0.0.1", balancer.port()));
    stream << "hello effitest-tune-v1 chips=1\n";
    stream.flush();
    ASSERT_TRUE(std::getline(stream, greeting));
    ASSERT_TRUE(std::getline(stream, error_line));
  }
  fake.join();
  balancer.request_drain();
  balancer.wait();
  real.request_drain();
  real.wait();

  EXPECT_EQ(greeting.rfind("serve effitest-tune-v1 ", 0), 0u) << greeting;
  EXPECT_EQ(error_line.rfind("error - fleet worker seed mismatch", 0), 0u)
      << error_line;
  EXPECT_EQ(balancer.metrics().counter(fleet::kFleetSessionsFailed), 1u);
}

TEST(FleetBalancer, WorkerRejectionIsForwardedAndNeverRetried) {
  // A deterministic worker-side rejection (`error - ...` greeting) would
  // recur on every worker — forwarding it once is correct, retrying is a
  // waste that hides the real problem.
  net::ServeOptions soptions;
  soptions.workers = 1;
  soptions.max_chips_per_session = 2;
  net::TuneServeLoop worker(holder().service, soptions);
  worker.start();

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({worker.host(), worker.port()});
  fleet::FleetBalancer balancer(registry, balancer_options());
  balancer.start();

  std::string reply;
  {
    net::SocketStream stream(net::connect_to("127.0.0.1", balancer.port()));
    stream << "hello effitest-tune-v1 chips=3\n";
    stream.flush();
    ASSERT_TRUE(std::getline(stream, reply));
  }
  balancer.request_drain();
  balancer.wait();
  worker.request_drain();
  worker.wait();

  EXPECT_EQ(reply.rfind("error - ", 0), 0u) << reply;
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRetried), 0u);
}

TEST(FleetBalancer, NewlineFreeClientFloodFailsOnlyItsSession) {
  // A tester whose hello never ends (2x the line cap, no newline) gets a
  // fatal error naming the cap and a close, in bounded time; it is counted
  // as a failed session, and a concurrent session is relayed untouched.
  net::ServeOptions soptions;
  soptions.workers = 2;
  net::TuneServeLoop worker(holder().service, soptions);
  worker.start();
  fleet::WorkerRegistry registry;
  (void)registry.add_worker({worker.host(), worker.port()});
  fleet::FleetBalancer balancer(registry, balancer_options());
  balancer.start();

  std::optional<net::ClientResult> sibling;
  std::thread sibling_thread([&] {
    net::ClientOptions copts;
    copts.chips = 2;
    sibling = net::run_loopback_client("127.0.0.1", balancer.port(),
                                       holder().problem, copts);
  });
  const auto begin = std::chrono::steady_clock::now();
  const std::string reply = flood(balancer.port(), 2 * io::kMaxLineBytes);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  sibling_thread.join();
  balancer.request_drain();
  balancer.wait();
  worker.request_drain();
  worker.wait();

  EXPECT_EQ(reply, io::format_error("hello " + io::line_too_long()) + "\n");
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  ASSERT_TRUE(sibling.has_value());
  EXPECT_EQ(sorted_by_chip(sibling->report_lines), simulated_report_lines(2));
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 1u);
}

TEST(FleetBalancer, BacklogFloodFailsOnlyItsSession) {
  // A tester declares one chip, then streams well-formed `response` lines
  // for seqs its chip has not reached, which the worker buffers for
  // reordering and the balancer records for replay. Past one chip's
  // kMaxBacklogBytesPerChip it gets a fatal error naming the limit, and its
  // session fails; a concurrent honest session completes byte-identical.
  net::ServeOptions soptions;
  soptions.workers = 2;
  net::TuneServeLoop worker(holder().service, soptions);
  worker.start();
  fleet::WorkerRegistry registry;
  (void)registry.add_worker({worker.host(), worker.port()});
  fleet::FleetBalancer balancer(registry, balancer_options());
  balancer.start();

  std::optional<net::ClientResult> sibling;
  std::thread sibling_thread([&] {
    net::ClientOptions copts;
    copts.chips = 2;
    sibling = net::run_loopback_client("127.0.0.1", balancer.port(),
                                       holder().problem, copts);
  });

  net::Socket hostile = net::connect_to("127.0.0.1", balancer.port());
  hostile.set_io_timeout(10.0);
  std::string received;
  std::thread reader([&] {
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::recv(hostile.fd(), buf, sizeof(buf), 0)) > 0) {
      received.append(buf, static_cast<std::size_t>(n));
    }
  });
  std::string flood = io::format_hello({1, 0, false}) + "\n";
  for (std::size_t seq = 1000; flood.size() < 64 * fleet::kMaxBacklogBytesPerChip;
       ++seq) {
    flood += io::format_response({0, seq, "1"}) + "\n";
  }
  for (std::size_t sent = 0; sent < flood.size();) {
    const ssize_t n = ::send(hostile.fd(), flood.data() + sent,
                             flood.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // cut off
    sent += static_cast<std::size_t>(n);
  }
  net::shutdown_write(hostile);
  reader.join();
  sibling_thread.join();
  balancer.request_drain();
  balancer.wait();
  worker.request_drain();
  worker.wait();

  const std::string error =
      io::format_error("client lines exceed the " +
                       std::to_string(fleet::kMaxBacklogBytesPerChip) +
                       "-byte replay backlog limit") +
      "\n";
  ASSERT_GE(received.size(), error.size()) << received;
  EXPECT_EQ(received.substr(received.size() - error.size()), error);
  ASSERT_TRUE(sibling.has_value());
  EXPECT_EQ(sorted_by_chip(sibling->report_lines), simulated_report_lines(2));
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRetried), 0u);
}

TEST(FleetBalancer, FloodingWorkerFailsOnlyItsSession) {
  // Slot 0 is a fake worker that reads the hello and answers 2x the line
  // cap without a newline, then hangs up. That session fails with a fatal
  // error naming the cap — never retried: an over-long line is a protocol
  // violation, not a death — while a concurrent session, routed to the
  // real worker in slot 1 because slot 0 is busy, completes untouched.
  net::ServeOptions soptions;
  soptions.workers = 1;
  net::TuneServeLoop real(holder().service, soptions);
  real.start();

  net::Listener flooder("127.0.0.1", 0, 8);
  std::promise<void> hello_seen;
  std::promise<void> sibling_done;
  std::thread fake([&] {
    net::Socket conn = flooder.accept();
    if (!conn.valid()) return;
    net::SocketStream stream(std::move(conn));
    std::string hello;
    if (io::read_line(stream, hello) != io::LineRead::kLine) return;
    hello_seen.set_value();
    sibling_done.get_future().wait();
    stream << std::string(2 * io::kMaxLineBytes, 'x');
    stream.flush();
  });

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({flooder.host(), flooder.port()});
  (void)registry.add_worker({real.host(), real.port()});
  fleet::FleetBalancer balancer(registry, balancer_options());
  balancer.start();

  std::string reply;
  net::ClientResult sibling;
  {
    net::Socket victim_socket =
        net::connect_to("127.0.0.1", balancer.port());
    victim_socket.set_io_timeout(10.0);
    net::SocketStream victim(std::move(victim_socket));
    victim << io::format_hello({1, 0, false}) << '\n';
    victim.flush();
    hello_seen.get_future().wait();  // the victim now holds slot 0

    net::ClientOptions copts;
    copts.chips = 2;
    sibling = net::run_loopback_client("127.0.0.1", balancer.port(),
                                       holder().problem, copts);
    sibling_done.set_value();
    EXPECT_EQ(io::read_line(victim, reply), io::LineRead::kLine);
  }  // the victim hangs up
  fake.join();
  balancer.request_drain();
  balancer.wait();
  real.request_drain();
  real.wait();

  EXPECT_EQ(reply, io::format_error("fleet worker " + io::line_too_long()));
  EXPECT_EQ(sorted_by_chip(sibling.report_lines), simulated_report_lines(2));
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRetried), 0u);
}

TEST(FleetBalancer, HalfOpenClientFailsOnlyItsSessionWithinTheIoTimeout) {
  // A tester that sends its hello and all its responses but never reads.
  // The relay's sends to it block once the kernel buffers fill; the send
  // timeout fails that session (at most two timeouts, as for serve), and
  // the only relay thread and the only worker are free for the next one.
  net::ServeOptions soptions;
  soptions.workers = 1;
  net::TuneServeLoop worker(holder().service, soptions);
  worker.start();
  fleet::WorkerRegistry registry;
  (void)registry.add_worker({worker.host(), worker.port()});
  fleet::BalancerOptions options = balancer_options();
  options.relay_workers = 1;
  options.io_timeout_seconds = 0.5;
  fleet::FleetBalancer balancer(registry, options);
  balancer.start();

  std::chrono::steady_clock::duration elapsed{};
  net::ClientResult next;
  {
    const fleet_test::HalfOpenPeer peer(balancer.port(), 6000);
    const auto begin = std::chrono::steady_clock::now();
    net::ClientOptions copts;
    copts.chips = 1;
    next = net::run_loopback_client("127.0.0.1", balancer.port(),
                                    holder().problem, copts);
    elapsed = std::chrono::steady_clock::now() - begin;
  }  // the peer hangs up only now, after its session already failed
  balancer.request_drain();
  balancer.wait();
  worker.request_drain();
  worker.wait();

  EXPECT_EQ(sorted_by_chip(next.report_lines), simulated_report_lines(1));
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 1u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRetried), 0u);
  // It failed mid-session, on the blocked relay, not at its hello.
  EXPECT_GT(worker.metrics().counter(net::kMetricStimuli), 1000u);
}

io::json::Value parse_status(const std::string& line) {
  io::json::Parser parser(line, "status");
  return parser.parse();
}

double status_number(const io::json::Value& doc, const char* section,
                     const std::string& name) {
  const io::json::Value* s = doc.find(section);
  const io::json::Value* v = s == nullptr ? nullptr : s->find(name);
  return v == nullptr ? -1.0 : v->number;
}

TEST(FleetBalancer, StatusEndpointsServeJsonAndPrometheus) {
  net::ServeOptions soptions;
  soptions.workers = 1;
  net::TuneServeLoop worker(holder().service, soptions);
  worker.start();

  fleet::WorkerRegistry registry;
  (void)registry.add_worker({worker.host(), worker.port()});
  fleet::BalancerOptions options = balancer_options();
  options.status_port = 0;
  fleet::FleetBalancer balancer(registry, options);
  balancer.start();
  ASSERT_NE(balancer.status_port(), 0);

  // One relayed session, so the counters have something to show.
  net::ClientOptions copts;
  copts.chips = 1;
  const net::ClientResult result = net::run_loopback_client(
      "127.0.0.1", balancer.port(), holder().problem, copts);
  EXPECT_EQ(sorted_by_chip(result.report_lines), simulated_report_lines(1));
  // The client's `bye` races the relay's completion bookkeeping by a few
  // instructions; wait for it to land before polling.
  while (balancer.metrics().counter(fleet::kFleetSessionsCompleted) < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Dedicated endpoint: fleet-level schema-v1 JSON.
  const io::json::Value doc = parse_status(
      net::fetch_status("127.0.0.1", balancer.status_port()));
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->string, "effitest-status-v1");
  EXPECT_EQ(
      status_number(doc, "counters", fleet::kFleetSessionsCompleted), 1.0);
  EXPECT_EQ(status_number(doc, "gauges", fleet::kFleetWorkersLive), 1.0);
  // Per-worker gauges are registered per registry slot.
  EXPECT_EQ(status_number(doc, "gauges", "fleet.worker0.live_sessions"), 0.0);

  // In-band `status` on the relay port answers without touching session
  // counters; `status prometheus` renders the same registry as exposition
  // text.
  const io::json::Value inband =
      parse_status(net::fetch_status("127.0.0.1", balancer.port()));
  EXPECT_EQ(
      status_number(inband, "counters", fleet::kFleetSessionsRouted), 1.0);
  const std::string prom =
      net::fetch_prometheus("127.0.0.1", balancer.port());
  EXPECT_NE(prom.find("# TYPE effitest_fleet_sessions_routed counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("effitest_fleet_sessions_routed 1"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE effitest_fleet_workers_live gauge"),
            std::string::npos);

  balancer.request_drain();
  balancer.wait();
  worker.request_drain();
  worker.wait();

  // Status polls were counted (3: two JSON, one prometheus), sessions not
  // perturbed.
  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetStatusRequests), 3u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsRouted), 1u);
}

#ifdef EFFITEST_FLEET_WORKER
TEST(FleetBalancer, SigkilledWorkerProcessSessionsAreRetried) {
  // The full stack, real processes: a supervisor spawns two helper worker
  // binaries, one session completes, worker 0 is SIGKILL'd, and the next
  // session must ride the retry onto worker 1 with byte-identical reports.
  // restart_on_crash is off so the kill is permanent and the routing
  // decision deterministic.
  fleet::WorkerRegistry registry;
  std::vector<std::size_t> slots;
  slots.push_back(registry.add_worker({"127.0.0.1", 0}));
  slots.push_back(registry.add_worker({"127.0.0.1", 0}));

  fleet::SupervisorOptions soptions;
  soptions.argv = {EFFITEST_FLEET_WORKER};
  soptions.children = 2;
  soptions.restart_on_crash = false;
  soptions.startup_timeout_seconds = 120.0;  // TSan-built helpers are slow
  fleet::ProcessSupervisor supervisor(
      soptions, [&registry, &slots](std::size_t child,
                                    const fleet::WorkerEndpoint& endpoint) {
        registry.update_endpoint(slots[child], endpoint);
      });

  fleet::FleetBalancer balancer(registry, balancer_options());
  supervisor.start();
  balancer.start();

  constexpr std::size_t kChips = 2;
  const std::vector<std::string> golden = simulated_report_lines(kChips);
  net::ClientOptions copts;
  copts.chips = kChips;

  const net::ClientResult before = net::run_loopback_client(
      "127.0.0.1", balancer.port(), holder().problem, copts);
  EXPECT_EQ(sorted_by_chip(before.report_lines), golden);

  // The client returns on its last report, possibly before the balancer's
  // relay thread releases slot 0; wait for that, or the next session
  // routes around slot 0 and never meets the dead worker.
  while (registry.in_flight(slots[0]) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const pid_t victim = supervisor.pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // The registry still believes slot 0 is live (no prober running): the
  // next session's first attach hits ECONNREFUSED, reports the failure,
  // and retries onto worker 1 — byte-identical.
  const net::ClientResult after = net::run_loopback_client(
      "127.0.0.1", balancer.port(), holder().problem, copts);
  EXPECT_EQ(sorted_by_chip(after.report_lines), golden);

  balancer.request_drain();
  balancer.wait();
  supervisor.drain();
  EXPECT_EQ(supervisor.restarts(), 0u);

  const obs::RegistrySnapshot m = balancer.metrics();
  EXPECT_EQ(m.counter(fleet::kFleetSessionsCompleted), 2u);
  EXPECT_EQ(m.counter(fleet::kFleetSessionsFailed), 0u);
  EXPECT_GE(m.counter(fleet::kFleetSessionsRetried), 1u);
  EXPECT_EQ(registry.health(slots[0]), fleet::WorkerHealth::kDead);
}
#endif  // EFFITEST_FLEET_WORKER

}  // namespace
