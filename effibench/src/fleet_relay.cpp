// fleet_relay: the networked tester floor. Set-up provisions s9234,
// prepares one core::TunerService, starts two in-process
// net::TuneServeLoops and an in-process fleet::FleetBalancer over them.
// The measured loop is closed: each of the tester connections runs 8-chip
// sessions (net::run_loopback_client) through the balancer back to back
// until the time budget is spent. An item is one session, timed by the
// load generator.
//
// Each tester tunes one die at a time (hello window=1), like a single-site
// tester. With every die of a session in flight at once, the relay's
// TCP stalls land on chip boundaries that shift with timing, and
// throughput swings by a third from seed to seed; one die at a time puts
// exactly one chip boundary after each die, so the figures are steady.
//
// Checks: every session's report lines are byte-identical to the same
// chips tuned in-process (io::TuneServer::run_simulated), its stimulus
// count equals the in-process one, and the workers' stimuli per session
// equal it too.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/balancer.hpp"
#include "fleet/registry.hpp"
#include "harness.hpp"
#include "io/tune_protocol.hpp"
#include "net/client.hpp"
#include "net/serve.hpp"
#include "provision.hpp"

namespace effibench {

using namespace effitest;

namespace {

constexpr std::size_t kChipsPerSession = 8;
constexpr std::size_t kChipWindow = 1;
constexpr std::size_t kServeLoops = 2;
constexpr std::size_t kDirectConnections = 2;

struct Fleet {
  Circuit circuit;
  std::unique_ptr<core::TunerService> service;
  std::vector<std::unique_ptr<net::TuneServeLoop>> loops;
  std::unique_ptr<fleet::WorkerRegistry> registry;
  std::unique_ptr<fleet::FleetBalancer> balancer;

  /// Drain every tier, balancer first; idempotent.
  void stop() {
    if (balancer) {
      balancer->request_drain();
      balancer->wait();
    }
    for (const auto& loop : loops) {
      loop->request_drain();
      loop->wait();
    }
  }
};

Fleet start_fleet(const Config& cfg, bool traced, Tracer& tracer) {
  Fleet f;
  const std::vector<std::string> names = {"s9234"};
  f.circuit = traced ? provision_traced(names, cfg.threads, tracer)[0]
                     : provision(names, cfg.threads).circuits[0];
  core::FlowOptions fopts;
  fopts.seed = cfg.seed;
  fopts.threads = cfg.threads;
  {
    const Tracer::Span span(tracer, "core.service");
    f.service = std::make_unique<core::TunerService>(f.circuit, fopts);
  }
  net::ServeOptions sopts;
  sopts.workers = cfg.threads / kServeLoops > 0 ? cfg.threads / kServeLoops : 1;
  sopts.io_timeout_seconds = 60.0;
  {
    const Tracer::Span span(tracer, "net.serve_start");
    for (std::size_t k = 0; k < kServeLoops; ++k) {
      f.loops.push_back(
          std::make_unique<net::TuneServeLoop>(*f.service, sopts));
      f.loops.back()->start();
    }
  }
  const Tracer::Span span(tracer, "fleet.balancer_start");
  f.registry = std::make_unique<fleet::WorkerRegistry>();
  for (const auto& loop : f.loops) {
    (void)f.registry->add_worker({loop->host(), loop->port()});
  }
  fleet::BalancerOptions bopts;
  bopts.relay_workers = cfg.threads;
  bopts.io_timeout_seconds = 60.0;
  f.balancer = std::make_unique<fleet::FleetBalancer>(*f.registry, bopts);
  f.balancer->start();
  return f;
}

/// The same chips tuned in-process.
struct Reference {
  std::vector<std::string> reports;  ///< sorted `report ...` lines
  std::size_t stimuli = 0;
};

Reference reference(const core::TunerService& service) {
  std::ostringstream protocol;
  io::TuneServer server(service, kChipsPerSession);
  Reference ref;
  ref.stimuli = server.run_simulated(protocol).stimuli;
  std::istringstream lines(protocol.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("report ", 0) == 0) ref.reports.push_back(line);
  }
  std::sort(ref.reports.begin(), ref.reports.end());
  return ref;
}

struct Load {
  std::vector<double> latencies;  ///< client-observed, seconds
  std::size_t sessions = 0;
  std::size_t bad = 0;
  double wall = 0.0;
  double queue_depth_max = 0.0;
};

/// Closed-loop load: `connections` testers run sessions against `port`
/// back to back until `budget` seconds have passed (at least one each).
/// A non-null `balancer` is polled for its queue depth meanwhile.
Load drive(std::uint16_t port, const core::Problem& problem,
           const fleet::FleetBalancer* balancer, const Reference& ref,
           std::size_t connections, double budget, bool corrupt,
           Tracer& tracer) {
  Load load;
  std::mutex mutex;  // guards load
  std::atomic<bool> polling{balancer != nullptr};
  std::thread poller([&] {
    while (polling.load()) {
      double depth = 0.0;
      {
        const Tracer::Span span(tracer, "obs.poll");
        depth = balancer->metrics().gauge(fleet::kFleetQueueDepth);
      }
      {
        const std::lock_guard<std::mutex> lock(mutex);
        load.queue_depth_max = std::max(load.queue_depth_max, depth);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(budget));
  std::vector<std::thread> testers;
  for (std::size_t k = 0; k < connections; ++k) {
    testers.emplace_back([&, k] {
      std::vector<double> latencies;
      std::size_t bad = 0;
      net::ClientOptions copts;
      copts.chips = kChipsPerSession;
      copts.window = kChipWindow;
      do {
        const auto t0 = Clock::now();
        bool ok = false;
        try {
          const Tracer::Span span(tracer, "fleet.session");
          net::ClientResult r =
              net::run_loopback_client("127.0.0.1", port, problem, copts);
          if (corrupt && k == 0 && latencies.empty()) {
            r.report_lines.front() += " ";
          }
          std::sort(r.report_lines.begin(), r.report_lines.end());
          ok = r.report_lines == ref.reports &&
               r.stimuli_answered == ref.stimuli;
        } catch (const std::exception&) {
          ok = false;
        }
        latencies.push_back(seconds_since(t0));
        bad += ok ? 0 : 1;
      } while (Clock::now() < deadline);
      const std::lock_guard<std::mutex> lock(mutex);
      load.latencies.insert(load.latencies.end(), latencies.begin(),
                            latencies.end());
      load.sessions += latencies.size();
      load.bad += bad;
    });
  }
  for (std::thread& t : testers) t.join();
  load.wall = seconds_since(start);
  polling.store(false);
  poller.join();
  return load;
}

struct WorkerSide {
  double session_ms = 0.0;  ///< worker-observed mean session latency
  double stimuli_per_session = 0.0;
  std::uint64_t completed = 0;  ///< fleet-completed sessions
  std::uint64_t retried = 0;
};

WorkerSide worker_side(const Fleet& f) {
  WorkerSide w;
  double sum = 0.0;
  std::uint64_t count = 0;
  std::uint64_t stimuli = 0;
  std::uint64_t served = 0;
  for (const auto& loop : f.loops) {
    const obs::RegistrySnapshot m = loop->metrics();
    stimuli += m.counter(net::kMetricStimuli);
    served += m.counter(net::kMetricSessionsCompleted);
    if (const obs::HistogramSnapshot* h =
            m.histogram(net::kMetricSessionLatency)) {
      sum += h->sum;
      count += h->count;
    }
  }
  const obs::RegistrySnapshot fm = f.balancer->metrics();
  w.completed = fm.counter(fleet::kFleetSessionsCompleted);
  w.retried = fm.counter(fleet::kFleetSessionsRetried);
  w.session_ms = count > 0 ? sum / static_cast<double>(count) * 1e3 : 0.0;
  w.stimuli_per_session =
      served > 0 ? static_cast<double>(stimuli) / static_cast<double>(served)
                 : 0.0;
  return w;
}

void check_load(Outcome& out, const Load& load, const WorkerSide& w,
                const Reference& ref) {
  out.check(load.sessions, load.bad,
            std::to_string(load.bad) +
                " session(s) differ from the in-process reports");
  out.check(1, w.completed == load.sessions ? 0 : 1,
            "balancer completed " + std::to_string(w.completed) + " of " +
                std::to_string(load.sessions) + " sessions");
  const bool same_stimuli =
      w.stimuli_per_session == static_cast<double>(ref.stimuli);
  out.check(1, same_stimuli ? 0 : 1,
            "worker stimuli per session differ from the in-process count");
}

}  // namespace

Outcome run_fleet_relay(const Config& cfg, Tracer& tracer) {
  Tracer off(false);
  std::vector<double> setup_times;
  Fleet fleet;
  for (std::size_t r = 0; r < cfg.setup_reps; ++r) {
    fleet.stop();  // tear the last set-up down outside the timing
    fleet = Fleet{};
    const auto t0 = Clock::now();
    fleet = start_fleet(cfg, false, off);
    setup_times.push_back(seconds_since(t0));
  }
  const Reference ref = reference(*fleet.service);
  const double budget =
      cfg.smoke ? 0.0 : cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Load load =
      drive(fleet.balancer->port(), fleet.circuit->problem,
            fleet.balancer.get(), ref, cfg.threads, budget, cfg.corrupt, off);
  fleet.stop();
  const WorkerSide w = worker_side(fleet);

  Outcome out;
  check_load(out, load, w, ref);
  const double setup_s = median(setup_times);
  const double sessions_per_s = static_cast<double>(load.sessions) / load.wall;
  const double client_ms = mean(load.latencies) * 1e3;
  add_e2e(out, setup_s, sessions_per_s, load.latencies);
  out.report = {
      {"setup_s", setup_s, "s"},
      {"sessions_per_s", sessions_per_s, "1/s"},
      {"session_p50_ms", quantile(load.latencies, 0.50) * 1e3, "ms"},
      {"session_p90_ms", quantile(load.latencies, 0.90) * 1e3, "ms"},
      {"session_mean_ms", client_ms, "ms"},
      {"worker_session_ms", w.session_ms, "ms"},
      {"relay_ms", client_ms - w.session_ms, "ms"},
      {"stimuli_per_session", w.stimuli_per_session, "count"},
      {"sessions", static_cast<double>(load.sessions), "count"},
  };
  if (!cfg.trace) return out;

  // Traced run: a fresh fleet for the other half of the budget.
  const double untraced_rate = sessions_per_s;
  const auto w0 = Clock::now();
  Fleet traced = start_fleet(cfg, true, tracer);
  const Load tload =
      drive(traced.balancer->port(), traced.circuit->problem,
            traced.balancer.get(), ref, cfg.threads, budget, false, tracer);
  const auto w1 = Clock::now();
  traced.stop();
  const WorkerSide tw = worker_side(traced);
  check_load(out, tload, tw, ref);

  // Direct leg: sessions straight to one serve loop, no balancer — the
  // worker-side session time the relay is measured against.
  net::ServeOptions sopts;
  sopts.workers = kDirectConnections;
  sopts.io_timeout_seconds = 60.0;
  net::TuneServeLoop direct(*traced.service, sopts);
  direct.start();
  const Load dload =
      drive(direct.port(), traced.circuit->problem, nullptr, ref,
            kDirectConnections, cfg.smoke ? 0.0 : 1.0, false, off);
  direct.request_drain();
  direct.wait();
  out.check(dload.sessions, dload.bad,
            std::to_string(dload.bad) + " direct session(s) differ");

  const double tclient_ms = mean(tload.latencies) * 1e3;
  const double untraced_wall =
      setup_times.back() + static_cast<double>(tload.sessions) / untraced_rate;
  add_layers(
      out, tracer, w0, w1, untraced_wall,
      {
          {"scenario.resolve_s", tracer.total("scenario.resolve").first, "s"},
          {"netlist.generate_s", tracer.total("netlist.generate").first, "s"},
          {"timing.model_s", tracer.total("timing.model").first, "s"},
          {"net.worker_session_ms", tw.session_ms, "ms"},
          {"net.stimuli_per_session", tw.stimuli_per_session, "count"},
          {"fleet.relay_ms", tclient_ms - tw.session_ms, "ms"},
          {"net.direct_session_ms", mean(dload.latencies) * 1e3, "ms"},
          {"fleet.sessions_retried", static_cast<double>(tw.retried), "count"},
          {"fleet.queue_depth_max", tload.queue_depth_max, "count"},
      });
  return out;
}

}  // namespace effibench
