#pragma once
// Shared fixture for the net and fleet suites (and the fleet_worker helper
// binary): one tiny 16-FF/60-gate/2-buffer circuit with an explicit
// designated period, so construction is protocol-speed. Every worker in a
// test — in-process TuneServeLoop, fake dying listener, or spawned helper
// process — is built from this one spec, which is what makes the
// byte-identity assertions meaningful: any two workers answer a replayed
// session with the same bytes.
//
// Deliberately gtest-free so fleet_worker_main.cpp can include it.

#include <sys/socket.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/problem.hpp"
#include "core/tuner_service.hpp"
#include "io/tune_protocol.hpp"
#include "net/socket.hpp"
#include "netlist/cell.hpp"
#include "netlist/generator.hpp"
#include "timing/model.hpp"

namespace effitest::fleet_test {

struct ServiceHolder {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  core::Problem problem;
  core::TunerService service;

  static netlist::GeneratorSpec spec() {
    netlist::GeneratorSpec s;
    s.num_flip_flops = 16;
    s.num_gates = 60;
    s.num_buffers = 2;
    s.num_critical_paths = 6;
    s.seed = 7;
    return s;
  }

  static core::FlowOptions options() {
    core::FlowOptions o;
    o.seed = 11;
    o.designated_period = 900.0;
    o.threads = 1;
    return o;
  }

  ServiceHolder()
      : circuit(netlist::generate_circuit(spec())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model),
        service(problem, options()) {}
};

inline const ServiceHolder& holder() {
  static const ServiceHolder h;
  return h;
}

/// Chip ids are the second token; lexicographic sort is wrong past chip 9.
inline std::vector<std::string> sorted_by_chip(
    std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end(),
            [](const std::string& a, const std::string& b) {
              std::istringstream as(a), bs(b);
              std::string tag;
              std::size_t ca = 0, cb = 0;
              as >> tag >> ca;
              bs >> tag >> cb;
              return ca < cb;
            });
  return lines;
}

/// The `report <chip> ...` lines of a local simulated run, in chip order —
/// the golden transcript every fleet-relayed session must reproduce
/// byte-for-byte, migrations included.
inline std::vector<std::string> simulated_report_lines(std::size_t chips) {
  io::TuneServer server(holder().service, chips);
  std::ostringstream out;
  (void)server.run_simulated(out);
  std::vector<std::string> reports;
  std::istringstream is(out.str());
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("report ", 0) == 0) reports.push_back(line);
  }
  return sorted_by_chip(std::move(reports));
}

/// Send `bytes` newline-free bytes to `port`, half-close, and return
/// everything the peer sent back before it closed the connection.
inline std::string flood(std::uint16_t port, std::size_t bytes) {
  const net::Socket peer = net::connect_to("127.0.0.1", port);
  const std::string junk(bytes, 'x');
  for (std::size_t sent = 0; sent < junk.size();) {
    const ssize_t n = ::send(peer.fd(), junk.data() + sent,
                             junk.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // the peer gave up on us early: fine too
    sent += static_cast<std::size_t>(n);
  }
  net::shutdown_write(peer);
  std::string received;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(peer.fd(), buf, sizeof(buf), 0)) > 0) {
    received.append(buf, static_cast<std::size_t>(n));
  }
  return received;
}

/// A half-open tester: it sends its hello and every response of a
/// `chips`-die session up front — the replies of a local simulated run,
/// so the server accepts each one and keeps writing — and never reads.
/// Once that output fills the kernel buffers between the two ends (about
/// 4 MB on loopback; 6,000 dies write about 5 MB), the server's next send
/// blocks. The connection stays open, unread, until the peer is destroyed.
class HalfOpenPeer {
 public:
  HalfOpenPeer(std::uint16_t port, std::size_t chips)
      : script_(script(chips)), socket_(net::connect_to("127.0.0.1", port)) {
    // A small receive buffer, so the server's output fills the path soon.
    const int bytes = 4096;
    (void)::setsockopt(socket_.fd(), SOL_SOCKET, SO_RCVBUF, &bytes,
                       sizeof(bytes));
    // The server stops reading once it blocks, so this send may block too:
    // it ends when the server gives up on the session and resets the
    // connection, or at the latest after this timeout.
    socket_.set_io_timeout(60.0);
    sender_ = std::thread([this] {
      (void)net::send_all(socket_.fd(), script_);
    });
  }
  ~HalfOpenPeer() { sender_.join(); }

  HalfOpenPeer(const HalfOpenPeer&) = delete;
  HalfOpenPeer& operator=(const HalfOpenPeer&) = delete;

 private:
  /// Computed before connecting: a slow peer would otherwise meet the
  /// server's hello timeout instead of the blocked send under test.
  static std::string script(std::size_t chips) {
    io::TuneServer server(holder().service, chips);
    std::ostringstream out, responses;
    (void)server.run_simulated(out, &responses);
    return io::format_hello({chips, 0, false}) + "\n" + responses.str();
  }

  std::string script_;
  net::Socket socket_;
  std::thread sender_;
};

}  // namespace effitest::fleet_test
