#pragma once
// Multi-circuit experiment campaigns on the shared parallel runtime.
//
// A campaign is a flat list of (circuit, designated-period) jobs — the shape
// of Table 1 (every circuit at the T1 convention) and Table 2 (every circuit
// at the T1/T2 quantiles). Circuits are provisioned through a
// scenario::CircuitCatalog (the eight paper benchmarks by default), so
// `.bench`-imported, scaled and inline-generated circuits sweep alongside
// paper ones. The runner:
//
//  * fans distinct circuits out across the shared thread pool (each circuit
//    is resolved through the catalog's memoized cache, so it is generated,
//    modeled and prepared exactly once — per process, not just per run);
//  * runs same-circuit jobs sequentially against the reused T_d-independent
//    FlowArtifacts (the Table-2 pattern), so an 8-circuit x 2-period sweep
//    costs 8 offline preparations, not 16;
//  * lets the per-chip loops inside each flow draw from the same pool, so
//    one invocation saturates all cores even when circuits outnumber —
//    or are outnumbered by — the workers.
//
// Every job is seeded from CampaignOptions::flow.seed exactly as a direct
// run_flow call would be, and all fan-out goes through
// parallel::deterministic_for, so campaign results are bit-identical for any
// thread count (job wall-clock fields excepted).

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/flow.hpp"

namespace effitest::scenario {
class CircuitCatalog;
}  // namespace effitest::scenario

namespace effitest::obs {
class StructuredLog;
}  // namespace effitest::obs

namespace effitest::core {

/// What one campaign job computes.
enum class JobKind {
  /// The paper's Monte-Carlo flow (run_flow): tester iterations + yields.
  kFlow,
  /// Analytic post-tuning SSTA (analytic::analyze_tuned_period): tuned /
  /// untuned required-period distributions and analytic yields — orders of
  /// magnitude cheaper per circuit, no per-chip sampling.
  kAnalytic,
};

/// "flow" / "analytic" (scenario specs, checkpoints, CLI --modes).
[[nodiscard]] const char* job_kind_name(JobKind kind);
/// Inverse of job_kind_name; throws std::invalid_argument on anything else.
[[nodiscard]] JobKind job_kind_from(const std::string& name);

/// One flow invocation of a campaign.
struct CampaignJob {
  /// Catalog name of the circuit (a paper benchmark name under the default
  /// catalog; any registered name under CampaignOptions::catalog).
  std::string circuit;
  /// Explicit designated period T_d (ps). <= 0 reads T_d from the
  /// circuit's calibration sample at `quantile`.
  double designated_period = 0.0;
  /// Untuned required-period quantile to calibrate T_d from (0.5 = T1,
  /// 0.8413 = T2); < 0 means T1. A circuit's jobs read it from one
  /// core::calibration_sample of the nominal model at the campaign seed,
  /// so each T_d is the one `run` and `run --quantile` pick.
  double quantile = -1.0;
  /// What this job computes. Analytic jobs share the circuit group's
  /// prepared model (the engine runs once per circuit — its result is
  /// T_d-independent) and calibrate T_d exactly like flow jobs, so the two
  /// kinds' yields compare at identical designated periods.
  JobKind kind = JobKind::kFlow;
};

struct CampaignJobResult {
  CampaignJob job;
  /// Flow metrics; ns/ng are filled in from the generated netlist.
  FlowMetrics metrics;
  /// Wall time of this job — T_d calibration included, circuit
  /// construction excluded (non-deterministic; everything else in the
  /// result is thread-invariant).
  double seconds = 0.0;
  /// True when `metrics` is valid: the job ran this invocation or was
  /// injected from a checkpoint (CampaignOptions::completed). False only
  /// for jobs left pending by CampaignOptions::max_jobs.
  bool completed = false;
};

struct CampaignResult {
  std::vector<CampaignJobResult> jobs;  ///< in input order
  double total_seconds = 0.0;           ///< campaign wall time

  /// Jobs with valid metrics (run or resumed).
  [[nodiscard]] std::size_t completed_jobs() const {
    std::size_t n = 0;
    for (const CampaignJobResult& j : jobs) n += j.completed ? 1 : 0;
    return n;
  }
};

struct CampaignOptions {
  /// Base flow options applied to every job (chips, seed, ...).
  /// designated_period is overridden per job; flow.threads of 0 inherits
  /// `threads` below (the same 0-inherits rule as grouping/hold inside the
  /// flow), so setting one knob configures the whole campaign.
  FlowOptions flow{};
  /// Circuit-level fan-out; 0 = shared-pool width. Same-circuit jobs always
  /// run sequentially (they share the prepared artifacts).
  std::size_t threads = 0;
  /// ModelOptions::random_inflation for the built circuit models (Fig. 7);
  /// part of the catalog's memoization key. Dies are sampled from the
  /// inflated model; T_d comes from the nominal one (CampaignJob::quantile).
  double random_inflation = 1.0;
  /// Circuit registry jobs resolve against; null = the process-wide shared
  /// paper catalog (scenario::CircuitCatalog::shared_paper()).
  std::shared_ptr<const scenario::CircuitCatalog> catalog;
  /// Feed each circuit's logic-masking exclusions
  /// (PreparedCircuit::exclusions) into BatchingOptions::exclusions. Off by
  /// default: the historical campaign path never applied them, and golden
  /// paper metrics are pinned without them.
  bool use_exclusions = false;

  // --- checkpoint/resume hooks (io/checkpoint_json.hpp wires these) -------

  /// Already-completed job results keyed by the index into the jobs vector
  /// passed to run() (a resumed checkpoint). These jobs are not re-run:
  /// their results are copied into the output verbatim (the job fields must
  /// match the submitted jobs — validated up front). Because every job is
  /// independently seeded and a fresh prepare is bit-identical to reused
  /// artifacts, skipping any subset leaves the remaining jobs' results
  /// unchanged — a resumed campaign equals the uninterrupted one bit for
  /// bit (wall-clock fields excepted).
  std::vector<std::pair<std::size_t, CampaignJobResult>> completed;
  /// Called once per newly finished job (resumed jobs excluded) with its
  /// jobs-vector index and result. Calls are serialized by the runner (one
  /// at a time, any thread), so a checkpoint writer needs no extra locking.
  std::function<void(std::size_t, const CampaignJobResult&)> on_job_complete;
  /// Run at most this many pending jobs, chosen in input order (0 = all).
  /// The deterministic "kill at job boundary k" knob: the campaign stops
  /// cleanly with the remaining jobs marked not-completed, ready to resume.
  std::size_t max_jobs = 0;
  /// Structured event log: one `campaign`/`job_complete` event per newly
  /// finished job (serialized with on_job_complete), or nullptr for none.
  /// Purely observational — results are bit-identical with or without it.
  obs::StructuredLog* log = nullptr;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  /// Run all jobs. Circuits fan out across the pool; within a circuit, jobs
  /// run in input order and every job after the first reuses the first
  /// job's FlowArtifacts.
  [[nodiscard]] CampaignResult run(const std::vector<CampaignJob>& jobs) const;

  /// Cross product: every circuit at every explicit period and then every
  /// quantile, for every job kind, circuit-major (so the runner groups them
  /// into one preparation per circuit). Empty period and quantile lists
  /// yield one default-convention job per circuit and kind; an empty kind
  /// list means flow only.
  [[nodiscard]] static std::vector<CampaignJob> cross(
      const std::vector<std::string>& circuits,
      const std::vector<double>& quantiles,
      const std::vector<JobKind>& kinds = {JobKind::kFlow},
      const std::vector<double>& periods = {});

 private:
  CampaignOptions options_;
};

}  // namespace effitest::core
