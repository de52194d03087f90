// bench_serve — throughput and latency of the TCP serve mode
// (src/net/serve.hpp) under N concurrent in-process loopback clients.
//
// One TuneServeLoop on an ephemeral 127.0.0.1 port serves
// clients × sessions-per-client whole tuning sessions of --chips dies
// each; every client thread runs net::run_loopback_client back to back
// and verifies it got one report line per chip. The serve metrics
// (sessions/sec, per-session latency p50/p90/p99) land in
// BENCH_serve.json (effitest-bench-v1, validated by
// tools/check_bench_json.py against bench/baselines/serve.json).
//
//   --clients=N    concurrent client threads        (default 8)
//   --sessions=N   sessions each client runs        (default 8)
//   --chips=N      dies per session                 (default 4)
//   --workers=N    serve-loop worker threads        (default 8)
//   --fleet[=K]    route through a FleetBalancer over K in-process
//                  serve workers (default K=2) instead of one loop;
//                  results land in BENCH_fleet.json
//   plus the shared --circuits/--seed of bench_common.hpp (first circuit
//   only; default s9234).
//
// stimuli_per_session is deterministic for fixed (circuit, seed, chips) —
// the sessions replay the same dies, through the balancer or not — so the
// baseline gates it exactly; sessions_per_sec is wall-clock and gated
// loosely. The fleet mode's gap to the serve baseline is the relay tax.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/tuner_service.hpp"
#include "fleet/balancer.hpp"
#include "fleet/registry.hpp"
#include "io/bench_json.hpp"
#include "net/client.hpp"
#include "net/serve.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace effitest;

struct ServeBenchArgs {
  std::size_t clients = 8;
  std::size_t sessions = 8;
  std::size_t chips = 4;
  std::size_t workers = 8;
  bool fleet = false;
  std::size_t fleet_workers = 2;
};

}  // namespace

int main(int argc, char** argv) {
  // bench_common's parser rejects the serve-specific options; strip them
  // first and hand it the rest.
  ServeBenchArgs sargs;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--clients=", 0) == 0) {
      sargs.clients = bench::parse_unsigned(a, 10);
    } else if (a.rfind("--sessions=", 0) == 0) {
      sargs.sessions = bench::parse_unsigned(a, 11);
    } else if (a.rfind("--workers=", 0) == 0) {
      sargs.workers = bench::parse_unsigned(a, 10);
    } else if (a == "--fleet") {
      sargs.fleet = true;
    } else if (a.rfind("--fleet=", 0) == 0) {
      sargs.fleet = true;
      sargs.fleet_workers = bench::parse_unsigned(a, 8);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  bench::BenchArgs args =
      bench::parse_args(static_cast<int>(passthrough.size()),
                        passthrough.data());
  if (args.chips != 0) sargs.chips = args.chips;
  if (args.circuits.empty()) args.circuits = {"s9234"};

  const std::string circuit = bench::selected_circuits(args).front();
  const auto prepared =
      scenario::CircuitCatalog::shared_paper()->resolve(circuit);
  core::FlowOptions fopts;
  fopts.seed = args.seed;
  fopts.threads = 1;  // the serve loop provides the parallelism here
  const core::TunerService service(prepared->problem, fopts);

  net::ServeOptions sopts;
  sopts.workers = sargs.workers;
  sopts.io_timeout_seconds = 60.0;

  // Either one direct serve loop, or K loops behind a FleetBalancer — the
  // clients drive whatever `port` points at and cannot tell the difference
  // (that indistinguishability is the fleet's whole contract).
  net::TuneServeLoop loop(service, sopts);
  std::vector<std::unique_ptr<net::TuneServeLoop>> fleet_loops;
  std::unique_ptr<fleet::WorkerRegistry> registry;
  std::unique_ptr<fleet::FleetBalancer> balancer;
  std::uint16_t port = 0;
  if (sargs.fleet) {
    for (std::size_t k = 0; k < sargs.fleet_workers; ++k) {
      fleet_loops.push_back(
          std::make_unique<net::TuneServeLoop>(service, sopts));
      fleet_loops.back()->start();
    }
    registry = std::make_unique<fleet::WorkerRegistry>();
    for (const auto& w : fleet_loops) {
      (void)registry->add_worker({w->host(), w->port()});
    }
    fleet::BalancerOptions bopts;
    bopts.relay_workers = sargs.workers;
    bopts.io_timeout_seconds = 60.0;
    balancer = std::make_unique<fleet::FleetBalancer>(*registry, bopts);
    balancer->start();
    port = balancer->port();
    std::cout << "bench_serve: " << circuit << ", " << sargs.clients
              << " clients x " << sargs.sessions << " sessions x "
              << sargs.chips << " chips, balancer over "
              << sargs.fleet_workers << " workers on " << balancer->host()
              << ":" << port << "\n";
  } else {
    loop.start();
    port = loop.port();
    std::cout << "bench_serve: " << circuit << ", " << sargs.clients
              << " clients x " << sargs.sessions << " sessions x "
              << sargs.chips << " chips, " << sargs.workers << " workers on "
              << loop.host() << ":" << loop.port() << "\n";
  }

  std::atomic<std::size_t> bad_sessions{0};
  {
    std::vector<std::thread> clients;
    clients.reserve(sargs.clients);
    for (std::size_t i = 0; i < sargs.clients; ++i) {
      clients.emplace_back([&] {
        for (std::size_t s = 0; s < sargs.sessions; ++s) {
          net::ClientOptions copts;
          copts.chips = sargs.chips;
          try {
            const net::ClientResult r = net::run_loopback_client(
                "127.0.0.1", port, prepared->problem, copts);
            if (r.report_lines.size() != sargs.chips) {
              bad_sessions.fetch_add(1);
            }
          } catch (const std::exception& e) {
            bad_sessions.fetch_add(1);
            std::cerr << "client session failed: " << e.what() << "\n";
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  std::uint64_t completed = 0;
  std::uint64_t stimuli = 0;
  std::uint64_t chips_tuned = 0;
  double sessions_per_sec = 0.0;
  double wall_seconds = 0.0;
  obs::HistogramSnapshot latency;
  if (sargs.fleet) {
    balancer->request_drain();
    balancer->wait();
    for (const auto& w : fleet_loops) w->request_drain();
    for (const auto& w : fleet_loops) w->wait();
    // Throughput and wall-clock are the balancer's (the client-visible
    // tier); stimuli, chips and per-session latency live on the workers
    // and aggregate by summing — bucketed histograms merge exactly.
    const obs::RegistrySnapshot fm = balancer->metrics();
    completed = fm.counter(fleet::kFleetSessionsCompleted);
    sessions_per_sec = fm.gauge(fleet::kFleetSessionsPerSec);
    wall_seconds = fm.gauge(fleet::kFleetWallSeconds);
    for (const auto& w : fleet_loops) {
      const obs::RegistrySnapshot wm = w->metrics();
      stimuli += wm.counter(net::kMetricStimuli);
      chips_tuned += wm.counter(net::kMetricChipsTuned);
      if (const obs::HistogramSnapshot* h =
              wm.histogram(net::kMetricSessionLatency)) {
        for (std::size_t b = 0; b < obs::HistogramSnapshot::kBuckets; ++b) {
          latency.buckets[b] += h->buckets[b];
        }
        latency.count += h->count;
      }
    }
  } else {
    loop.request_drain();
    loop.wait();
    const obs::RegistrySnapshot m = loop.metrics();
    completed = m.counter(net::kMetricSessionsCompleted);
    sessions_per_sec = m.gauge(net::kMetricSessionsPerSec);
    wall_seconds = m.gauge(net::kMetricWallSeconds);
    stimuli = m.counter(net::kMetricStimuli);
    chips_tuned = m.counter(net::kMetricChipsTuned);
    if (const obs::HistogramSnapshot* h =
            m.histogram(net::kMetricSessionLatency)) {
      latency = *h;
    }
  }

  const std::size_t expected = sargs.clients * sargs.sessions;
  if (bad_sessions.load() != 0 || completed != expected) {
    std::cerr << "bench_serve: " << bad_sessions.load()
              << " bad session(s), " << completed << "/" << expected
              << " completed — not recording\n";
    return 1;
  }

  const auto latency_ms = [&latency](double q) {
    return latency.quantile(q) * 1e3;
  };
  const double stimuli_per_session = double(stimuli) / double(completed);

  core::Table t({"metric", "value"});
  t.add_row({"sessions", core::Table::num(double(completed), 0)});
  t.add_row({"sessions/s", core::Table::num(sessions_per_sec, 1)});
  t.add_row({"stimuli/session", core::Table::num(stimuli_per_session, 2)});
  t.add_row({"latency p50 (ms)", core::Table::num(latency_ms(0.50), 3)});
  t.add_row({"latency p90 (ms)", core::Table::num(latency_ms(0.90), 3)});
  t.add_row({"latency p99 (ms)", core::Table::num(latency_ms(0.99), 3)});
  t.print(std::cout);

  io::JsonReporter json(sargs.fleet ? "fleet" : "serve", sargs.workers);
  json.add(circuit, "sessions_per_sec", sessions_per_sec, wall_seconds);
  json.add(circuit, "stimuli_per_session", stimuli_per_session, wall_seconds);
  json.add(circuit, "chips_tuned", double(chips_tuned), wall_seconds);
  json.add(circuit, "latency_p50_ms", latency_ms(0.50), wall_seconds);
  json.add(circuit, "latency_p90_ms", latency_ms(0.90), wall_seconds);
  json.add(circuit, "latency_p99_ms", latency_ms(0.99), wall_seconds);
  json.write(".");
  return 0;
}
