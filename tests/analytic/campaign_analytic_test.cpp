// The campaign-layer surface of the analytic engine: JobKind::kAnalytic
// jobs through CampaignRunner (calibration parity with flow jobs, the
// per-circuit analysis cache, metric fill-in), the checkpoint round-trip
// of the "kind" field (including identity separation and backward
// compatibility with pre-analytic checkpoints), and the scenario-spec
// "modes" grid.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "io/checkpoint_json.hpp"
#include "io/scenario_json.hpp"
#include "netlist/generator.hpp"
#include "scenario/circuit_catalog.hpp"

namespace effitest {
namespace {

using core::CampaignJob;
using core::CampaignOptions;
using core::CampaignResult;
using core::CampaignRunner;
using core::JobKind;

std::shared_ptr<const scenario::CircuitCatalog> tiny_catalog() {
  static const std::shared_ptr<const scenario::CircuitCatalog> catalog = [] {
    auto c = std::make_shared<scenario::CircuitCatalog>();
    netlist::GeneratorSpec a;
    a.name = "tiny_a";
    a.num_flip_flops = 24;
    a.num_gates = 150;
    a.num_buffers = 2;
    a.num_critical_paths = 10;
    a.seed = 3;
    c->add("tiny_a", a);
    return c;
  }();
  return catalog;
}

CampaignOptions base_options() {
  CampaignOptions o;
  o.catalog = tiny_catalog();
  o.flow.chips = 30;
  o.flow.seed = 99;
  o.threads = 2;
  return o;
}

TEST(JobKind, NamesRoundTripAndRejectUnknown) {
  EXPECT_STREQ(core::job_kind_name(JobKind::kFlow), "flow");
  EXPECT_STREQ(core::job_kind_name(JobKind::kAnalytic), "analytic");
  EXPECT_EQ(core::job_kind_from("flow"), JobKind::kFlow);
  EXPECT_EQ(core::job_kind_from("analytic"), JobKind::kAnalytic);
  EXPECT_THROW((void)core::job_kind_from("florb"), std::invalid_argument);
}

TEST(JobKind, CrossExpandsCircuitMajorOverKinds) {
  const auto jobs = CampaignRunner::cross(
      {"a", "b"}, {0.5}, {JobKind::kFlow, JobKind::kAnalytic});
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].circuit, "a");
  EXPECT_EQ(jobs[0].kind, JobKind::kFlow);
  EXPECT_EQ(jobs[1].circuit, "a");
  EXPECT_EQ(jobs[1].kind, JobKind::kAnalytic);
  EXPECT_EQ(jobs[2].circuit, "b");
  EXPECT_EQ(jobs[2].kind, JobKind::kFlow);
  // Default kinds = {flow}.
  for (const CampaignJob& j : CampaignRunner::cross({"a"}, {})) {
    EXPECT_EQ(j.kind, JobKind::kFlow);
  }
}

TEST(CampaignAnalytic, AnalyticJobsFillAnalyticMetrics) {
  // One flow job and one analytic job, both at the default convention —
  // the analytic job calibrates T_d at the T1 median with the same seed
  // stream a q=0.5 flow job would use.
  const std::vector<CampaignJob> jobs = {
      CampaignJob{"tiny_a", 0.0, 0.5, JobKind::kFlow},
      CampaignJob{"tiny_a", 0.0, -1.0, JobKind::kAnalytic},
      CampaignJob{"tiny_a", 0.0, 0.5, JobKind::kAnalytic},
  };
  const CampaignResult result = CampaignRunner(base_options()).run(jobs);
  ASSERT_EQ(result.jobs.size(), 3u);

  const core::FlowMetrics& flow = result.jobs[0].metrics;
  const core::FlowMetrics& analytic_default = result.jobs[1].metrics;
  const core::FlowMetrics& analytic_q = result.jobs[2].metrics;

  // Default-convention analytic == q=0.5 analytic (same calibration).
  EXPECT_EQ(analytic_default.designated_period,
            analytic_q.designated_period);
  // Same T_d as the flow job at the same quantile — cross-mode yields
  // line up at identical designated periods.
  EXPECT_EQ(flow.designated_period, analytic_q.designated_period);

  for (const core::FlowMetrics* m : {&analytic_default, &analytic_q}) {
    EXPECT_GT(m->np, 0u);
    EXPECT_EQ(m->nb, 2u);
    EXPECT_GT(m->untuned_mean, 0.0);
    EXPECT_GT(m->untuned_sigma, 0.0);
    EXPECT_GT(m->tuned_mean, 0.0);
    EXPECT_LE(m->tuned_mean, m->untuned_mean);
    EXPECT_GE(m->yield_ideal, 0.0);
    EXPECT_LE(m->yield_ideal, 1.0);
    EXPECT_GE(m->yield_no_buffer, 0.0);
    EXPECT_LE(m->yield_no_buffer, 1.0);
    // Tuning can only improve the yield at a fixed period.
    EXPECT_GE(m->yield_ideal, m->yield_no_buffer - 1e-12);
    // Analytic jobs never run the tester flow.
    EXPECT_EQ(m->npt, 0u);
  }
}

TEST(CampaignAnalytic, KindRoundTripsThroughCheckpoint) {
  const std::vector<CampaignJob> jobs = {
      CampaignJob{"tiny_a", 0.0, 0.5, JobKind::kFlow},
      CampaignJob{"tiny_a", 0.0, 0.5, JobKind::kAnalytic},
  };
  CampaignOptions opts = base_options();
  const std::string path = ::testing::TempDir() + "analytic_kind.ckpt";
  const std::string identity = io::campaign_identity(jobs, opts);
  {
    io::CheckpointWriter writer(path, identity, jobs.size(), {});
    opts.on_job_complete = [&writer](std::size_t index,
                                     const core::CampaignJobResult& r) {
      writer.record(index, r);
    };
    (void)CampaignRunner(opts).run(jobs);
  }
  const io::CampaignCheckpoint loaded = io::load_campaign_checkpoint(path);
  ASSERT_EQ(loaded.completed.size(), 2u);
  EXPECT_EQ(loaded.identity, identity);
  for (const auto& [idx, r] : loaded.completed) {
    EXPECT_EQ(r.job.kind, jobs[idx].kind) << idx;
  }

  // Resume accepts the matching job list and rejects a kind mismatch.
  CampaignOptions resume = base_options();
  resume.completed = loaded.completed;
  const CampaignResult resumed = CampaignRunner(resume).run(jobs);
  EXPECT_EQ(resumed.completed_jobs(), 2u);

  std::vector<CampaignJob> flipped = jobs;
  flipped[1].kind = JobKind::kFlow;
  CampaignOptions mismatched = base_options();
  mismatched.completed = loaded.completed;
  EXPECT_THROW(CampaignRunner(mismatched).run(flipped),
               std::invalid_argument);
}

TEST(CampaignAnalytic, IdentitySeparatesKindsButNotFlowOnlyCampaigns) {
  const CampaignOptions opts = base_options();
  const std::vector<CampaignJob> flow_jobs = {
      CampaignJob{"tiny_a", 0.0, 0.5, JobKind::kFlow}};
  const std::vector<CampaignJob> analytic_jobs = {
      CampaignJob{"tiny_a", 0.0, 0.5, JobKind::kAnalytic}};
  // An analytic campaign must never resume a flow checkpoint.
  EXPECT_NE(io::campaign_identity(flow_jobs, opts),
            io::campaign_identity(analytic_jobs, opts));
  // Flow-only identities are unchanged by the kind field's introduction:
  // the job line only carries " kind=..." for non-flow jobs, so existing
  // checkpoints stay resumable.
  EXPECT_EQ(io::campaign_identity(flow_jobs, opts),
            io::campaign_identity(
                {CampaignJob{"tiny_a", 0.0, 0.5}}, opts));
}

TEST(ScenarioModes, GridMultipliesJobsCircuitMajor) {
  const io::Scenario s = io::parse_scenario(
      R"({ "schema": "effitest-scenario-v1",
           "quantiles": [0.5, 0.8413],
           "modes": ["flow", "analytic"],
           "circuits": [ { "paper": "s9234" }, { "paper": "s13207" } ] })",
      "modes.json");
  ASSERT_EQ(s.jobs.size(), 8u);  // 2 circuits x 2 modes x 2 quantiles
  EXPECT_EQ(s.jobs[0].circuit, "s9234");
  EXPECT_EQ(s.jobs[0].kind, JobKind::kFlow);
  EXPECT_EQ(s.jobs[1].kind, JobKind::kFlow);
  EXPECT_EQ(s.jobs[2].kind, JobKind::kAnalytic);
  EXPECT_EQ(s.jobs[3].kind, JobKind::kAnalytic);
  EXPECT_EQ(s.jobs[4].circuit, "s13207");
}

TEST(ScenarioModes, DefaultsToFlowAndRejectsBadModes) {
  const io::Scenario s = io::parse_scenario(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "paper": "s9234" } ] })",
      "default.json");
  ASSERT_EQ(s.jobs.size(), 1u);
  EXPECT_EQ(s.jobs[0].kind, JobKind::kFlow);

  EXPECT_THROW(io::parse_scenario(
                   R"({ "schema": "effitest-scenario-v1",
                        "modes": ["florb"],
                        "circuits": [ { "paper": "s9234" } ] })",
                   "bad.json"),
               io::ScenarioError);
  EXPECT_THROW(io::parse_scenario(
                   R"({ "schema": "effitest-scenario-v1",
                        "modes": [],
                        "circuits": [ { "paper": "s9234" } ] })",
                   "empty.json"),
               io::ScenarioError);
  EXPECT_THROW(io::parse_scenario(
                   R"({ "schema": "effitest-scenario-v1",
                        "modes": ["flow", "flow"],
                        "circuits": [ { "paper": "s9234" } ] })",
                   "dup.json"),
               io::ScenarioError);
}

}  // namespace
}  // namespace effitest
