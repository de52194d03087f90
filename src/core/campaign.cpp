#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "analytic/engine.hpp"
#include "obs/log.hpp"
#include "parallel/deterministic_for.hpp"
#include "scenario/circuit_catalog.hpp"
#include "stats/distributions.hpp"

namespace effitest::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

const char* job_kind_name(JobKind kind) {
  return kind == JobKind::kAnalytic ? "analytic" : "flow";
}

JobKind job_kind_from(const std::string& name) {
  if (name == "flow") return JobKind::kFlow;
  if (name == "analytic") return JobKind::kAnalytic;
  throw std::invalid_argument("unknown job kind \"" + name +
                              "\" (valid: flow analytic)");
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {}

std::vector<CampaignJob> CampaignRunner::cross(
    const std::vector<std::string>& circuits,
    const std::vector<double>& quantiles,
    const std::vector<JobKind>& kinds, const std::vector<double>& periods) {
  const std::vector<JobKind> effective_kinds =
      kinds.empty() ? std::vector<JobKind>{JobKind::kFlow} : kinds;
  std::vector<CampaignJob> jobs;
  jobs.reserve(circuits.size() *
               std::max<std::size_t>(periods.size() + quantiles.size(), 1) *
               effective_kinds.size());
  for (const std::string& circuit : circuits) {
    for (const JobKind kind : effective_kinds) {
      if (periods.empty() && quantiles.empty()) {
        jobs.push_back(CampaignJob{circuit, 0.0, -1.0, kind});
        continue;
      }
      for (double td : periods) {
        jobs.push_back(CampaignJob{circuit, td, -1.0, kind});
      }
      for (double q : quantiles) {
        jobs.push_back(CampaignJob{circuit, 0.0, q, kind});
      }
    }
  }
  return jobs;
}

CampaignResult CampaignRunner::run(
    const std::vector<CampaignJob>& jobs) const {
  const auto t0 = Clock::now();
  CampaignResult out;
  if (jobs.empty()) return out;  // nothing to run, nothing to time

  const std::shared_ptr<const scenario::CircuitCatalog> catalog =
      options_.catalog ? options_.catalog
                       : scenario::CircuitCatalog::shared_paper();

  // Validate every circuit name up front: a typo must fail with one clear
  // error before any job starts, not from inside the parallel fan-out.
  // spec() already formats the unknown-name message (with the registry).
  for (const CampaignJob& job : jobs) {
    try {
      (void)catalog->spec(job.circuit);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("CampaignRunner: ") + e.what());
    }
  }
  out.jobs.resize(jobs.size());

  // Inject resumed results (a loaded checkpoint): those jobs are done. The
  // job fields must match the submitted list — a checkpoint belonging to a
  // different campaign must fail loudly, never blend silently.
  std::vector<char> done(jobs.size(), 0);
  for (const auto& [idx, result] : options_.completed) {
    if (idx >= jobs.size()) {
      throw std::invalid_argument(
          "CampaignRunner: completed job index " + std::to_string(idx) +
          " is out of range (" + std::to_string(jobs.size()) + " jobs)");
    }
    if (done[idx] != 0) {
      throw std::invalid_argument("CampaignRunner: duplicate completed index " +
                                  std::to_string(idx));
    }
    const CampaignJob& job = jobs[idx];
    if (result.job.circuit != job.circuit ||
        result.job.designated_period != job.designated_period ||
        result.job.quantile != job.quantile || result.job.kind != job.kind) {
      throw std::invalid_argument(
          "CampaignRunner: completed job " + std::to_string(idx) +
          " does not match the submitted job list");
    }
    done[idx] = 1;
    out.jobs[idx] = result;
    out.jobs[idx].completed = true;
  }

  // Pending jobs in input order; max_jobs truncates here, which makes the
  // stop point a deterministic job boundary regardless of thread count.
  std::vector<std::size_t> pending;
  pending.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (done[i] == 0) pending.push_back(i);
  }
  if (options_.max_jobs > 0 && pending.size() > options_.max_jobs) {
    pending.resize(options_.max_jobs);
  }
  if (pending.empty()) {
    out.total_seconds = seconds_since(t0);
    return out;  // everything was resumed
  }

  // Group pending job indices by circuit, preserving first-appearance order
  // (the group's first job defines which artifacts the rest reuse; a
  // resumed group's first pending job simply prepares fresh, which is
  // bit-identical to the reuse path).
  std::vector<std::pair<std::string, std::vector<std::size_t>>> groups;
  for (const std::size_t i : pending) {
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.first == jobs[i].circuit;
    });
    if (it == groups.end()) {
      groups.emplace_back(jobs[i].circuit, std::vector<std::size_t>{i});
    } else {
      it->second.push_back(i);
    }
  }

  // Serializes on_job_complete: a checkpoint sink sees one call at a time.
  std::mutex sink_mutex;

  parallel::ForOptions fopts;
  fopts.threads = options_.threads;
  parallel::deterministic_for(groups.size(), fopts, [&](std::size_t gi) {
    const auto& [name, indices] = groups[gi];

    // One memoized resolve per circuit: repeated campaigns (and any other
    // consumer of the same catalog) share the prepared bundle.
    const std::shared_ptr<const scenario::PreparedCircuit> circuit =
        catalog->resolve(name, options_.random_inflation);
    const Problem& problem = circuit->problem;

    // Null for the first job (fresh prepare); every later job of the
    // circuit aliases the first job's artifacts — no copies. The analytic
    // engine result is likewise computed once per circuit (T_d-independent).
    std::shared_ptr<const FlowArtifacts> prepared;
    std::optional<analytic::TunedPeriodAnalysis> analysis;
    // Every job without an explicit T_d reads its quantile (T1 by default)
    // from one calibration sample, drawn by the first job that needs it on
    // the nominal model: T_d is the design's clock, not the dies'.
    std::vector<double> calibration;
    for (std::size_t idx : indices) {
      const CampaignJob& job = jobs[idx];
      FlowOptions opts = options_.flow;
      if (opts.threads == 0) opts.threads = options_.threads;
      opts.designated_period = job.designated_period;
      if (options_.use_exclusions) {
        opts.batching.exclusions = circuit->exclusions;
      }
      const auto j0 = Clock::now();  // job time includes T_d calibration
      if (opts.designated_period <= 0.0) {
        if (calibration.empty()) {
          calibration = calibration_sample(catalog->resolve(name)->problem,
                                           options_.flow.seed, opts.threads);
        }
        opts.designated_period = stats::sorted_quantile(
            calibration, job.quantile >= 0.0 ? job.quantile : 0.5);
      }

      CampaignJobResult& slot = out.jobs[idx];
      slot.job = job;
      if (job.kind == JobKind::kAnalytic) {
        if (!analysis) {
          analysis = analytic::analyze_tuned_period(problem);
        }
        FlowMetrics m;
        m.nb = problem.num_buffers();
        m.np = problem.model().num_pairs();
        m.designated_period = opts.designated_period;
        m.untuned_mean = analysis->untuned.mean;
        m.untuned_sigma = analysis->untuned.sigma();
        m.tuned_mean = analysis->tuned.mean;
        m.tuned_sigma = analysis->tuned.sigma();
        // Analytic yields at T_d: untuned (no buffers) and post-tuning
        // (ideal configuration) — the Clark counterparts of the flow's
        // yield_no_buffer / yield_ideal columns.
        m.yield_no_buffer = analysis->untuned.cdf(opts.designated_period);
        m.yield_ideal = analysis->tuned.cdf(opts.designated_period);
        slot.metrics = m;
      } else {
        FlowResult result = run_flow(problem, opts, prepared);
        slot.metrics = result.metrics;
        if (prepared == nullptr) {
          prepared = std::move(result.artifacts);  // shared, not copied
        }
      }
      slot.metrics.ns = circuit->netlist.num_flip_flops();
      slot.metrics.ng = circuit->netlist.num_combinational_gates();
      slot.seconds = seconds_since(j0);
      slot.completed = true;
      if (options_.on_job_complete || options_.log != nullptr) {
        const std::lock_guard<std::mutex> lock(sink_mutex);
        if (options_.log != nullptr) {
          options_.log->emit(
              "campaign", "job_complete",
              {obs::LogField::u64("index", static_cast<std::uint64_t>(idx)),
               obs::LogField::str("circuit", job.circuit),
               obs::LogField::str("kind", job_kind_name(job.kind)),
               obs::LogField::f64("quantile", job.quantile),
               obs::LogField::f64("td", slot.metrics.designated_period),
               obs::LogField::f64("ra", slot.metrics.ra),
               obs::LogField::f64("seconds", slot.seconds)});
        }
        if (options_.on_job_complete) options_.on_job_complete(idx, slot);
      }
    }
  });

  out.total_seconds = seconds_since(t0);
  return out;
}

}  // namespace effitest::core
