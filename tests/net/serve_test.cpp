// Integration suite for the TCP serve mode (net/serve.hpp): concurrent
// loopback sessions must reproduce `tune --simulate` reports
// byte-for-byte, an abandoned connection must never disturb its siblings,
// CRLF framing must survive the wire, a drain must finish every
// in-flight session, a hostile peer (flooding, silent or half-open) must
// fail only its own session, every socket must have Nagle off, and a
// send that failed once must never be retried. Runs
// under the ThreadSanitizer CI label (`net`)
// alongside the parallel/session suites — the whole point of the suite is
// the concurrency.
//
// Everything binds 127.0.0.1 port 0 (kernel-chosen), so parallel ctest
// invocations never collide.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../fleet/fleet_test_common.hpp"
#include "io/json.hpp"
#include "io/tune_protocol.hpp"
#include "net/client.hpp"
#include "net/serve.hpp"
#include "net/session_server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace effitest;

using fleet_test::flood;
using fleet_test::holder;
using fleet_test::simulated_report_lines;
using fleet_test::sorted_by_chip;

/// Answer every stimulus of a session whose greeting carried `seed` the
/// way `chips` simulated dies would, ending each response with `eol`, and
/// return the report lines once `bye` arrives.
std::vector<std::string> answer_session(net::SocketStream& stream,
                                        std::uint64_t seed, std::size_t chips,
                                        const char* eol = "\n") {
  const io::SimulatedTester tester(holder().problem, seed, chips);
  std::vector<std::string> reports;
  std::string line;
  while (io::read_line(stream, line) == io::LineRead::kLine) {
    const io::ServerLine kind = io::classify_server_line(line);
    if (kind == io::ServerLine::kBye) break;
    if (kind == io::ServerLine::kReport) reports.push_back(line);
    if (kind != io::ServerLine::kStimulus) continue;
    const io::StimulusLine stim = io::parse_stimulus(line);
    const std::vector<bool> pass =
        tester.answer(stim.chip, stim.final, stim.stimulus);
    stream << io::format_response({stim.chip, stim.seq, io::encode_bits(pass)})
           << eol;
  }
  return reports;
}

TEST(ServeLoop, ConcurrentLoopbackSessionsMatchSimulatedReports) {
  net::ServeOptions options;
  options.workers = 4;
  net::TuneServeLoop loop(holder().service, options);
  loop.start();

  constexpr std::size_t kClients = 12;
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
        // Odd clients add per-session backpressure; the reports must not
        // care.
        copts.window = (i % 2 == 1) ? 1 : 0;
        results[i] = net::run_loopback_client("127.0.0.1", loop.port(),
                                              holder().problem, copts);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  loop.request_drain();
  loop.wait();

  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(results[i].has_value()) << "client " << i << " threw";
    EXPECT_EQ(sorted_by_chip(results[i]->report_lines), golden)
        << "client " << i;
    EXPECT_TRUE(results[i]->error_lines.empty());
  }
  const obs::RegistrySnapshot m = loop.metrics();
  EXPECT_EQ(m.counter(net::kMetricSessionsCompleted), kClients);
  EXPECT_EQ(m.counter(net::kMetricSessionsFailed), 0u);
  EXPECT_EQ(m.counter(net::kMetricChipsTuned), kClients * kChips);
  EXPECT_EQ(m.gauge(net::kMetricActiveSessions), 0.0);
  EXPECT_EQ(m.gauge(net::kMetricQueueDepth), 0.0);
  EXPECT_GT(m.gauge(net::kMetricSessionsPerSec), 0.0);
  const obs::HistogramSnapshot* latency =
      m.histogram(net::kMetricSessionLatency);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, kClients);
  EXPECT_GT(latency->quantile(0.50), 0.0);
  EXPECT_LE(latency->quantile(0.50), latency->quantile(0.99));
}

TEST(ServeLoop, ManyConcurrentSessionsThroughFewWorkers) {
  // The acceptance bar: hundreds of concurrent connections funneled
  // through a handful of workers via accept-pausing backpressure — nobody
  // gets busy-rejected, every session's report is exact.
  net::ServeOptions options;
  options.workers = 8;
  options.max_pending = 16;
  net::TuneServeLoop loop(holder().service, options);
  loop.start();

  constexpr std::size_t kClients = 256;
  const std::vector<std::string> golden = simulated_report_lines(1);
  std::atomic<std::size_t> ok{0};
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&] {
        net::ClientOptions copts;
        copts.chips = 1;
        const net::ClientResult r = net::run_loopback_client(
            "127.0.0.1", loop.port(), holder().problem, copts);
        if (r.report_lines == golden) ok.fetch_add(1);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  loop.request_drain();
  loop.wait();
  EXPECT_EQ(ok.load(), kClients);
  EXPECT_EQ(loop.metrics().counter(net::kMetricSessionsCompleted), kClients);
}

TEST(ServeLoop, AbandonedConnectionLeavesSiblingsUntouched) {
  net::ServeOptions options;
  options.workers = 4;
  net::TuneServeLoop loop(holder().service, options);
  loop.start();

  const std::vector<std::string> golden = simulated_report_lines(2);
  {
    // Mid-session desertion: hello, greeting, first stimulus — then gone.
    net::SocketStream deserter(net::connect_to("127.0.0.1", loop.port()));
    deserter << "hello effitest-tune-v1 chips=2\n";
    deserter.flush();
    std::string line;
    ASSERT_TRUE(std::getline(deserter, line));
    EXPECT_EQ(line.rfind("serve effitest-tune-v1 ", 0), 0u) << line;
    ASSERT_TRUE(std::getline(deserter, line));  // session header
    ASSERT_TRUE(std::getline(deserter, line));  // first stimulus
  }  // closed without a single response

  net::ClientOptions copts;
  copts.chips = 2;
  const net::ClientResult sibling = net::run_loopback_client(
      "127.0.0.1", loop.port(), holder().problem, copts);
  EXPECT_EQ(sorted_by_chip(sibling.report_lines), golden);

  loop.request_drain();
  loop.wait();
  const obs::RegistrySnapshot m = loop.metrics();
  EXPECT_EQ(m.counter(net::kMetricSessionsCompleted), 1u);
  EXPECT_EQ(m.counter(net::kMetricSessionsFailed), 1u);
}

TEST(ServeLoop, CrlfFramedClientIsServed) {
  // A telnet-style client terminates every line with \r\n; the protocol
  // reader must strip the \r over TCP exactly as it does from a file
  // (the regression the CRLF fix pinned, now end to end).
  net::ServeOptions options;
  options.workers = 1;
  net::TuneServeLoop loop(holder().service, options);
  loop.start();

  const std::vector<std::string> golden = simulated_report_lines(1);
  std::vector<std::string> reports;
  {
    net::SocketStream stream(net::connect_to("127.0.0.1", loop.port()));
    stream << "hello effitest-tune-v1 chips=1\r\n";
    stream.flush();
    std::string line;
    ASSERT_EQ(io::read_line(stream, line), io::LineRead::kLine);
    reports = answer_session(stream, io::parse_greeting(line).seed, 1, "\r\n");
  }
  loop.request_drain();
  loop.wait();
  EXPECT_EQ(reports, golden);
  EXPECT_EQ(loop.metrics().counter(net::kMetricSessionsCompleted), 1u);
}

TEST(ServeLoop, DrainFinishesInFlightSessions) {
  net::ServeOptions options;
  options.workers = 2;
  net::TuneServeLoop loop(holder().service, options);
  loop.start();

  const std::vector<std::string> golden = simulated_report_lines(2);

  // Deterministic overlap: the session is provably in flight (greeting and
  // header consumed) before the drain lands, and only answered after.
  net::SocketStream stream(net::connect_to("127.0.0.1", loop.port()));
  stream << "hello effitest-tune-v1 chips=2\n";
  stream.flush();
  std::string line;
  ASSERT_TRUE(std::getline(stream, line));
  ASSERT_EQ(line.rfind("serve ", 0), 0u) << line;
  const std::uint64_t seed = io::parse_greeting(line).seed;

  loop.request_drain();  // listener closes NOW; this session must survive

  const std::vector<std::string> reports = answer_session(stream, seed, 2);
  loop.wait();
  EXPECT_EQ(sorted_by_chip(reports), golden);
  const obs::RegistrySnapshot m = loop.metrics();
  EXPECT_EQ(m.counter(net::kMetricSessionsCompleted), 1u);
  EXPECT_EQ(m.counter(net::kMetricSessionsFailed), 0u);

  // And the listener really is gone: a late connection is refused (or
  // reset), never queued.
  EXPECT_THROW((void)net::connect_to("127.0.0.1", loop.port()),
               std::runtime_error);
}

TEST(ServeLoop, MalformedAndOversizedHellosAreRejected) {
  net::ServeOptions options;
  options.workers = 1;
  options.max_chips_per_session = 4;
  net::TuneServeLoop loop(holder().service, options);
  loop.start();

  const auto first_line_for = [&](const std::string& hello) {
    net::SocketStream stream(net::connect_to("127.0.0.1", loop.port()));
    stream << hello << '\n';
    stream.flush();
    std::string line;
    EXPECT_TRUE(std::getline(stream, line));
    return line;
  };

  EXPECT_EQ(first_line_for("nonsense").rfind("error - ", 0), 0u);
  EXPECT_EQ(first_line_for("hello effitest-tune-v1").rfind("error - ", 0),
            0u);
  EXPECT_EQ(first_line_for("hello effitest-tune-v1 chips=0")
                .rfind("error - ", 0),
            0u);
  const std::string oversized =
      first_line_for("hello effitest-tune-v1 chips=5");
  EXPECT_EQ(oversized.rfind("error - ", 0), 0u);
  EXPECT_NE(oversized.find("per-session limit"), std::string::npos);
  // At the limit is fine.
  EXPECT_EQ(first_line_for("hello effitest-tune-v1 chips=4")
                .rfind("serve effitest-tune-v1 ", 0),
            0u);

  loop.request_drain();
  loop.wait();
  const obs::RegistrySnapshot m = loop.metrics();
  // Four rejected hellos, plus the chips=4 session whose client deserted
  // right after the greeting.
  EXPECT_EQ(m.counter(net::kMetricSessionsFailed), 5u);
  EXPECT_EQ(m.counter(net::kMetricSessionsCompleted), 0u);
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

TEST(ServeLoop, StatusPollsAreLiveMonotonicAndUnperturbing) {
  net::ServeOptions options;
  options.workers = 2;
  options.status_port = 0;  // plaintext endpoint on an ephemeral port
  net::TuneServeLoop loop(holder().service, options);
  loop.start();
  ASSERT_NE(loop.status_port(), 0);

  // Idle fleet: session counters are zero; the poll itself is counted —
  // status_requests is incremented before rendering, so every reply
  // already includes itself.
  {
    const io::json::Value idle =
        parse_status(net::fetch_status("127.0.0.1", loop.status_port()));
    ASSERT_NE(idle.find("schema"), nullptr);
    EXPECT_EQ(idle.find("schema")->string, "effitest-status-v1");
    EXPECT_EQ(
        status_number(idle, "counters", net::kMetricSessionsAccepted), 0.0);
    EXPECT_EQ(
        status_number(idle, "counters", net::kMetricStatusRequests), 1.0);
  }

  // Hold one session provably in flight (greeting consumed, nothing
  // answered yet) and poll the serve port in-band: the session shows up
  // as accepted and active, never as completed — and the poll itself
  // must not bump any session counter.
  net::SocketStream stream(net::connect_to("127.0.0.1", loop.port()));
  stream << "hello effitest-tune-v1 chips=1\n";
  stream.flush();
  std::string line;
  ASSERT_TRUE(std::getline(stream, line));
  ASSERT_EQ(line.rfind("serve ", 0), 0u) << line;
  const std::uint64_t seed = io::parse_greeting(line).seed;

  const io::json::Value mid =
      parse_status(net::fetch_status("127.0.0.1", loop.port()));
  EXPECT_EQ(
      status_number(mid, "counters", net::kMetricSessionsAccepted), 1.0);
  EXPECT_EQ(
      status_number(mid, "counters", net::kMetricSessionsCompleted), 0.0);
  EXPECT_EQ(status_number(mid, "gauges", net::kMetricActiveSessions), 1.0);

  // Answer the held session to completion.
  (void)answer_session(stream, seed, 1);

  // `bye` races the server's own bookkeeping by a few instructions; wait
  // for the completion to land before taking the final poll.
  while (loop.metrics().counter(net::kMetricSessionsCompleted) < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const io::json::Value last =
      parse_status(net::fetch_status("127.0.0.1", loop.status_port()));

  loop.request_drain();
  loop.wait();
  const obs::RegistrySnapshot end = loop.metrics();

  // A final poll taken after the last session finished matches the
  // end-of-run snapshot exactly on every monotonic metric, and every
  // mid-run poll is elementwise <= it.
  for (const auto& [name, value] : end.counters) {
    EXPECT_EQ(status_number(last, "counters", name),
              static_cast<double>(value))
        << name;
    EXPECT_LE(status_number(mid, "counters", name),
              static_cast<double>(value))
        << name;
  }
  const obs::HistogramSnapshot* latency =
      end.histogram(net::kMetricSessionLatency);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1u);
  const io::json::Value* hists = last.find("histograms");
  ASSERT_NE(hists, nullptr);
  const io::json::Value* polled = hists->find(net::kMetricSessionLatency);
  ASSERT_NE(polled, nullptr);
  ASSERT_NE(polled->find("count"), nullptr);
  EXPECT_EQ(polled->find("count")->number,
            static_cast<double>(latency->count));
  ASSERT_NE(polled->find("p50"), nullptr);
  EXPECT_EQ(polled->find("p50")->number, latency->quantile(0.50));

  // Three polls (idle, mid-session, final), each counting itself.
  EXPECT_EQ(end.counter(net::kMetricStatusRequests), 3u);
  EXPECT_EQ(end.counter(net::kMetricSessionsAccepted), 1u);
  EXPECT_EQ(end.counter(net::kMetricSessionsCompleted), 1u);
}

TEST(ServeLoop, TricklingStatusPeerCannotPinTheAcceptThread) {
  // Slowloris on the status port: a peer sends one newline-free byte every
  // 0.5 s — inside the endpoint's 1 s recv timeout — for 3 s. It must get
  // its reply and then EOF at once, and a tune session must be accepted and
  // served meanwhile, both well before the trickle ends.
  net::ServeOptions options;
  options.workers = 1;
  options.status_port = 0;
  net::TuneServeLoop loop(holder().service, options);
  loop.start();

  const auto begin = std::chrono::steady_clock::now();
  const net::Socket peer = net::connect_to("127.0.0.1", loop.status_port());
  std::thread trickler([&] {
    while (std::chrono::steady_clock::now() - begin < std::chrono::seconds(3)) {
      (void)::send(peer.fd(), "x", 1, MSG_NOSIGNAL);
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  });
  std::string received;
  char buf[4096];
  ssize_t n = 0;
  const auto read_more = [&] {
    n = ::recv(peer.fd(), buf, sizeof(buf), 0);
    if (n > 0) received.append(buf, static_cast<std::size_t>(n));
    return n > 0;
  };
  // The reply line first: from here on the accept thread has taken this
  // peer, so the session below proves it is not stuck on it.
  while (received.find('\n') == std::string::npos && read_more()) {
  }
  net::ClientOptions copts;
  copts.chips = 1;
  const net::ClientResult session = net::run_loopback_client(
      "127.0.0.1", loop.port(), holder().problem, copts);
  const auto served_after = std::chrono::steady_clock::now() - begin;
  while (read_more()) {
  }
  const auto closed_after = std::chrono::steady_clock::now() - begin;
  trickler.join();
  loop.request_drain();
  loop.wait();

  EXPECT_EQ(session.report_lines, simulated_report_lines(1));
  EXPECT_LT(served_after, std::chrono::seconds(2));
  EXPECT_LT(closed_after, std::chrono::seconds(2));
  const std::size_t nl = received.find('\n');
  ASSERT_NE(nl, std::string::npos);
  EXPECT_EQ(received.size(), nl + 1);  // the reply, then EOF
  const io::json::Value reply = parse_status(received.substr(0, nl));
  EXPECT_EQ(status_number(reply, "counters", net::kMetricStatusRequests), 1.0);
}

TEST(ServeLoop, NewlineFreeFloodFailsOnlyItsSession) {
  // A hello that never ends: 2x the protocol's line cap without a newline.
  // The server holds at most kMaxLineBytes of it, answers a fatal error
  // naming the cap and closes — in bounded time, without disturbing a
  // concurrent session.
  net::ServeOptions options;
  options.workers = 2;
  net::TuneServeLoop loop(holder().service, options);
  loop.start();

  std::optional<net::ClientResult> sibling;
  std::thread sibling_thread([&] {
    net::ClientOptions copts;
    copts.chips = 2;
    sibling = net::run_loopback_client("127.0.0.1", loop.port(),
                                       holder().problem, copts);
  });
  const auto begin = std::chrono::steady_clock::now();
  const std::string reply = flood(loop.port(), 2 * io::kMaxLineBytes);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  sibling_thread.join();
  loop.request_drain();
  loop.wait();

  EXPECT_EQ(reply, io::format_error("hello " + io::line_too_long()) + "\n");
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  ASSERT_TRUE(sibling.has_value());
  EXPECT_EQ(sorted_by_chip(sibling->report_lines), simulated_report_lines(2));
  const obs::RegistrySnapshot m = loop.metrics();
  EXPECT_EQ(m.counter(net::kMetricSessionsFailed), 1u);
  EXPECT_EQ(m.counter(net::kMetricSessionsCompleted), 1u);
}

TEST(ServeLoop, IdleTimeoutReleasesTheWorkerOfAVanishedPeer) {
  // Connect-and-vanish: a peer opens a connection and never speaks. With
  // the only session thread stuck on it, the next tester is served only
  // because the I/O timeout turns the silence into end of stream. The
  // default bounds this at five minutes; the test shortens it.
  EXPECT_EQ(net::ListenOptions{}.io_timeout_seconds, 300.0);
  net::ServeOptions options;
  options.workers = 1;
  options.io_timeout_seconds = 0.5;
  net::TuneServeLoop loop(holder().service, options);
  loop.start();

  // Accepted first, so the FIFO session queue hands it to the only worker
  // first.
  const net::Socket silent = net::connect_to("127.0.0.1", loop.port());
  const auto begin = std::chrono::steady_clock::now();
  net::ClientOptions copts;
  copts.chips = 1;
  const net::ClientResult next = net::run_loopback_client(
      "127.0.0.1", loop.port(), holder().problem, copts);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  loop.request_drain();
  loop.wait();

  EXPECT_EQ(next.report_lines, simulated_report_lines(1));
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  const obs::RegistrySnapshot m = loop.metrics();
  EXPECT_EQ(m.counter(net::kMetricSessionsFailed), 1u);
  EXPECT_EQ(m.counter(net::kMetricSessionsCompleted), 1u);
}

TEST(ServeLoop, HalfOpenPeerFailsOnlyItsSessionWithinTheIoTimeout) {
  // A tester that sends its hello and all its responses but never reads
  // what the server writes back. The server's sends block once the kernel
  // buffers fill; the send timeout turns that into a failed session (a
  // send that times out part-way returns short and the retry waits once
  // more, so at most two timeouts), and the only session thread is free
  // for the next tester.
  net::ServeOptions options;
  options.workers = 1;
  options.io_timeout_seconds = 0.5;
  net::TuneServeLoop loop(holder().service, options);
  loop.start();

  std::chrono::steady_clock::duration elapsed{};
  net::ClientResult next;
  {
    const fleet_test::HalfOpenPeer peer(loop.port(), 6000);
    const auto begin = std::chrono::steady_clock::now();
    net::ClientOptions copts;
    copts.chips = 1;
    next = net::run_loopback_client("127.0.0.1", loop.port(),
                                    holder().problem, copts);
    elapsed = std::chrono::steady_clock::now() - begin;
  }  // the peer hangs up only now, after its session already failed
  loop.request_drain();
  loop.wait();

  EXPECT_EQ(next.report_lines, simulated_report_lines(1));
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  const obs::RegistrySnapshot m = loop.metrics();
  EXPECT_EQ(m.counter(net::kMetricSessionsFailed), 1u);
  EXPECT_EQ(m.counter(net::kMetricSessionsCompleted), 1u);
  // It failed mid-session, on the blocked send, not at its hello.
  EXPECT_GT(m.counter(net::kMetricStimuli), 1000u);
}

TEST(Socket, AcceptedAndConnectedSocketsHaveNagleOff) {
  // The tune protocol writes small lines and waits for small replies; with
  // Nagle on, every second line of a burst waits out the peer's delayed
  // ACK. Both ends of every protocol socket must have it off.
  const auto nodelay = [](const net::Socket& socket) {
    int value = 0;
    socklen_t len = sizeof(value);
    EXPECT_EQ(::getsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &value,
                           &len),
              0);
    return value != 0;
  };
  net::Listener listener("127.0.0.1", 0, 1);
  const net::Socket connected = net::connect_to("127.0.0.1", listener.port());
  const net::Socket accepted = listener.accept();
  ASSERT_TRUE(accepted.valid());
  EXPECT_TRUE(nodelay(connected));
  EXPECT_TRUE(nodelay(accepted));
}

TEST(Socket, FailedSendIsNeverRetried) {
  // A writer whose peer stops reading: once a flush has timed out, part of
  // its put area may already be on the wire. Every later flush must fail
  // at once instead of waiting out another send timeout, and must never
  // send those bytes a second time.
  constexpr std::size_t kWidth = 16;  // one fixed-width numbered line
  const auto numbered = [](std::size_t k) {
    std::string line = std::to_string(k);
    line.insert(0, kWidth - 1 - line.size(), '0');
    return line + '\n';
  };
  net::Listener listener("127.0.0.1", 0, 1);
  net::Socket writer_socket = net::connect_to("127.0.0.1", listener.port());
  net::Socket peer = listener.accept();
  ASSERT_TRUE(peer.valid());
  writer_socket.set_io_timeout(0.5);
  auto writer = std::make_unique<net::SocketStream>(std::move(writer_socket));

  // The peer reads nothing, so the kernel buffers fill and a flush fails.
  std::size_t written = 0;
  while (*writer << numbered(written)) ++written;

  const auto begin = std::chrono::steady_clock::now();
  EXPECT_EQ(writer->rdbuf()->pubsync(), -1);
  EXPECT_LT(std::chrono::steady_clock::now() - begin,
            std::chrono::milliseconds(250));

  // Now the peer drains everything; the writer flushes again and hangs up.
  std::string received;
  std::thread reader([&] {
    char chunk[1 << 16];
    ssize_t n = 0;
    while ((n = ::recv(peer.fd(), chunk, sizeof(chunk), 0)) > 0) {
      received.append(chunk, static_cast<std::size_t>(n));
    }
  });
  EXPECT_EQ(writer->rdbuf()->pubsync(), -1);
  writer.reset();
  reader.join();

  // Every byte arrived once, in order: lines 0, 1, 2, ... then at most a
  // torn prefix of the next one.
  const std::size_t whole = received.size() / kWidth;
  ASSERT_GT(whole, 0u);
  EXPECT_LE(whole, written + 1);
  for (std::size_t k = 0; k < whole; ++k) {
    ASSERT_EQ(received.substr(k * kWidth, kWidth), numbered(k)) << k;
  }
  EXPECT_EQ(numbered(whole).substr(0, received.size() % kWidth),
            received.substr(whole * kWidth));
}

TEST(SessionQueue, CloseDrainsBacklogThenReleasesWorkers) {
  net::SessionQueue<int> queue;
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_TRUE(queue.push(3));
  queue.close();
  EXPECT_FALSE(queue.push(4));  // rejected after close
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pop(), std::optional<int>(1));  // FIFO: oldest first
  std::atomic<int> drained{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < 2; ++w) {
    workers.emplace_back([&] {
      while (const std::optional<int> task = queue.pop()) {
        drained.fetch_add(*task);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(drained.load(), 5);  // 2 + 3, never the rejected 4
  EXPECT_EQ(queue.size(), 0u);
}

}  // namespace
