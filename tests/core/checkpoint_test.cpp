// Campaign checkpoint/resume: a campaign killed at ANY job boundary and
// resumed from its checkpoint file must produce results bit-identical to
// the uninterrupted run — the contract that makes --checkpoint/--resume
// safe to trust. Also pins the rejection paths (corrupt, truncated,
// mismatched-identity checkpoints) and the runner's injected-result
// validation.

#include "io/checkpoint_json.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "io/bench_json.hpp"
#include "netlist/generator.hpp"
#include "scenario/circuit_catalog.hpp"

namespace effitest {
namespace {

using core::CampaignJob;
using core::CampaignJobResult;
using core::CampaignOptions;
using core::CampaignResult;
using core::CampaignRunner;
using core::FlowMetrics;

/// Two tiny synthetic circuits: fast enough to run the whole campaign a
/// dozen times, real enough to exercise calibration, grouping and yield.
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
    netlist::GeneratorSpec b = a;
    b.name = "tiny_b";
    b.seed = 7;
    b.num_critical_paths = 8;
    c->add("tiny_a", a);
    c->add("tiny_b", b);
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

/// The campaign shape under test: a quantile sweep over one circuit plus
/// a quantile job and a default-convention job of a second circuit.
std::vector<CampaignJob> test_jobs() {
  return {CampaignJob{"tiny_a", 0.0, 0.5}, CampaignJob{"tiny_a", 0.0, 0.8413},
          CampaignJob{"tiny_b", 0.0, 0.5}, CampaignJob{"tiny_b", 0.0, -1.0}};
}

/// Every deterministic FlowMetrics field, compared exactly (bitwise for
/// the doubles). The three *_seconds fields are wall times and excluded.
void expect_metrics_identical(const FlowMetrics& a, const FlowMetrics& b,
                              const std::string& context) {
  EXPECT_EQ(a.ns, b.ns) << context;
  EXPECT_EQ(a.ng, b.ng) << context;
  EXPECT_EQ(a.nb, b.nb) << context;
  EXPECT_EQ(a.np, b.np) << context;
  EXPECT_EQ(a.npt, b.npt) << context;
  EXPECT_EQ(a.num_groups, b.num_groups) << context;
  EXPECT_EQ(a.num_batches, b.num_batches) << context;
  EXPECT_EQ(a.num_selected, b.num_selected) << context;
  EXPECT_EQ(a.forced_resolutions, b.forced_resolutions) << context;
  EXPECT_EQ(a.infeasible_configs, b.infeasible_configs) << context;
  EXPECT_EQ(a.epsilon_ps, b.epsilon_ps) << context;
  EXPECT_EQ(a.designated_period, b.designated_period) << context;
  EXPECT_EQ(a.ta, b.ta) << context;
  EXPECT_EQ(a.tv, b.tv) << context;
  EXPECT_EQ(a.ta_pathwise, b.ta_pathwise) << context;
  EXPECT_EQ(a.tv_pathwise, b.tv_pathwise) << context;
  EXPECT_EQ(a.ra, b.ra) << context;
  EXPECT_EQ(a.rv, b.rv) << context;
  EXPECT_EQ(a.yield_no_buffer, b.yield_no_buffer) << context;
  EXPECT_EQ(a.yield_ideal, b.yield_ideal) << context;
  EXPECT_EQ(a.yield_proposed, b.yield_proposed) << context;
  EXPECT_EQ(a.yield_drop, b.yield_drop) << context;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Reference: the uninterrupted campaign.
const CampaignResult& reference_result() {
  static const CampaignResult result =
      CampaignRunner(base_options()).run(test_jobs());
  return result;
}

TEST(CampaignCheckpoint, ResumeAtEveryJobBoundaryIsBitIdentical) {
  const std::vector<CampaignJob> jobs = test_jobs();
  const CampaignResult& reference = reference_result();
  ASSERT_EQ(reference.jobs.size(), jobs.size());
  ASSERT_EQ(reference.completed_jobs(), jobs.size());

  const std::string identity = io::campaign_identity(jobs, base_options());
  // k = jobs completed before the "kill": every boundary, 0 through all.
  for (std::size_t k = 0; k <= jobs.size(); ++k) {
    const std::string path =
        temp_path("resume_k" + std::to_string(k) + ".json");

    // Phase 1: run the first k jobs with a checkpoint writer attached
    // (k == 0 writes the empty checkpoint the CLI creates before the
    // first job completes).
    {
      io::CheckpointWriter writer(path, identity, jobs.size());
      if (k > 0) {
        CampaignOptions opts = base_options();
        opts.max_jobs = k;
        opts.on_job_complete = [&writer](std::size_t index,
                                         const CampaignJobResult& r) {
          writer.record(index, r);
        };
        const CampaignResult partial = CampaignRunner(opts).run(jobs);
        ASSERT_EQ(partial.completed_jobs(), k) << "k=" << k;
      }
    }

    // Phase 2: load the file back and finish the campaign.
    const io::CampaignCheckpoint loaded = io::load_campaign_checkpoint(path);
    EXPECT_EQ(loaded.identity, identity);
    EXPECT_EQ(loaded.total_jobs, jobs.size());
    ASSERT_EQ(loaded.completed.size(), k) << "k=" << k;
    io::validate_campaign_checkpoint(loaded, identity, jobs.size(), path);

    CampaignOptions opts = base_options();
    opts.completed = loaded.completed;
    const CampaignResult resumed = CampaignRunner(opts).run(jobs);
    ASSERT_EQ(resumed.completed_jobs(), jobs.size()) << "k=" << k;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // Jobs i < k round-tripped through JSON; jobs i >= k ran fresh.
      // Both must equal the uninterrupted run exactly.
      expect_metrics_identical(
          reference.jobs[i].metrics, resumed.jobs[i].metrics,
          "k=" + std::to_string(k) + " job=" + std::to_string(i));
    }
  }
}

TEST(CampaignCheckpoint, ResumeWithDifferentThreadCountIsIdentical) {
  const std::vector<CampaignJob> jobs = test_jobs();
  const std::string path = temp_path("resume_threads.json");

  // Checkpoint the first two jobs at threads=4.
  CampaignOptions four = base_options();
  four.threads = 4;
  const std::string identity = io::campaign_identity(jobs, four);
  io::CheckpointWriter writer(path, identity, jobs.size());
  four.max_jobs = 2;
  four.on_job_complete = [&writer](std::size_t index,
                                   const CampaignJobResult& r) {
    writer.record(index, r);
  };
  ASSERT_EQ(CampaignRunner(four).run(jobs).completed_jobs(), 2u);

  // Resume at threads=1: same identity (threads are excluded from it on
  // purpose — results are thread-invariant) and identical results.
  CampaignOptions one = base_options();
  one.threads = 1;
  EXPECT_EQ(io::campaign_identity(jobs, one), identity);
  const io::CampaignCheckpoint loaded = io::load_campaign_checkpoint(path);
  io::validate_campaign_checkpoint(loaded, io::campaign_identity(jobs, one),
                                   jobs.size(), path);
  one.completed = loaded.completed;
  const CampaignResult resumed = CampaignRunner(one).run(jobs);
  ASSERT_EQ(resumed.completed_jobs(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_metrics_identical(reference_result().jobs[i].metrics,
                             resumed.jobs[i].metrics,
                             "threads job=" + std::to_string(i));
  }
}

TEST(CampaignCheckpoint, BenchJsonIsByteIdenticalAfterResume) {
  const std::vector<CampaignJob> jobs = test_jobs();

  // Interrupt after job 1, resume, and render both results the way the
  // CLI does (wall_seconds forced to 0: wall time is the one legitimately
  // non-deterministic field).
  const std::string path = temp_path("resume_bench.json");
  const std::string identity = io::campaign_identity(jobs, base_options());
  {
    io::CheckpointWriter writer(path, identity, jobs.size());
    CampaignOptions opts = base_options();
    opts.max_jobs = 1;
    opts.on_job_complete = [&writer](std::size_t index,
                                     const CampaignJobResult& r) {
      writer.record(index, r);
    };
    (void)CampaignRunner(opts).run(jobs);
  }
  CampaignOptions opts = base_options();
  opts.completed = io::load_campaign_checkpoint(path).completed;
  const CampaignResult resumed = CampaignRunner(opts).run(jobs);

  const auto render = [&](const CampaignResult& result) {
    io::JsonReporter json("campaign", 0);
    for (const CampaignJobResult& r : result.jobs) {
      const FlowMetrics& m = r.metrics;
      const std::string label =
          r.job.circuit + "@q" + std::to_string(r.job.quantile);
      json.add(label, "td", m.designated_period);
      json.add(label, "np", static_cast<double>(m.np));
      json.add(label, "npt", static_cast<double>(m.npt));
      json.add(label, "ta", m.ta);
      json.add(label, "t'v", m.tv_pathwise);
      json.add(label, "ra", m.ra);
      json.add(label, "rv", m.rv);
      json.add(label, "yield_no_buffer", m.yield_no_buffer);
      json.add(label, "yield_proposed", m.yield_proposed);
      json.add(label, "yield_ideal", m.yield_ideal);
    }
    const std::string out = temp_path("bench_render.json");
    (void)json.write_file(out);
    return slurp(out);
  };

  EXPECT_EQ(render(reference_result()), render(resumed));
}

TEST(CampaignCheckpoint, CorruptAndTruncatedFilesAreRejected) {
  const std::string garbage = temp_path("garbage.json");
  {
    std::ofstream out(garbage);
    out << "this is not json{{{";
  }
  EXPECT_THROW((void)io::load_campaign_checkpoint(garbage),
               io::CheckpointError);
  // The corrupt-file error must tell the operator how to recover, not just
  // where the parse died: both --resume (restore a good copy) and
  // start-fresh (remove, rerun without --resume) are named.
  try {
    (void)io::load_campaign_checkpoint(garbage);
    FAIL() << "corrupt checkpoint was accepted";
  } catch (const io::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("corrupt checkpoint"), std::string::npos) << what;
    EXPECT_NE(what.find("--resume"), std::string::npos) << what;
    EXPECT_NE(what.find("remove the file"), std::string::npos) << what;
  }

  EXPECT_THROW((void)io::load_campaign_checkpoint(
                   temp_path("does_not_exist.json")),
               io::CheckpointError);

  // A valid checkpoint truncated mid-file (a torn write without the
  // atomic-rename discipline) must be rejected, not half-loaded.
  const std::vector<CampaignJob> jobs = test_jobs();
  const std::string valid = temp_path("valid.json");
  {
    io::CheckpointWriter writer(valid, "0123456789abcdef", jobs.size());
    CampaignJobResult r;
    r.job = jobs[0];
    r.completed = true;
    writer.record(0, r);
  }
  const std::string text = slurp(valid);
  ASSERT_GT(text.size(), 40u);
  const std::string truncated = temp_path("truncated.json");
  {
    std::ofstream out(truncated, std::ios::binary);
    out << text.substr(0, text.size() / 2);
  }
  EXPECT_THROW((void)io::load_campaign_checkpoint(truncated),
               io::CheckpointError);

  // Every metric is required: a checkpoint missing one (here tuned_sigma,
  // an analytic field) is rejected, not read as 0.
  std::string no_sigma = text;
  const std::size_t at = no_sigma.find(", \"tuned_sigma\"");
  ASSERT_NE(at, std::string::npos);
  no_sigma.erase(at, no_sigma.find('}', at) - at);
  const std::string missing = temp_path("missing_metric.json");
  {
    std::ofstream out(missing, std::ios::binary);
    out << no_sigma;
  }
  EXPECT_THROW((void)io::load_campaign_checkpoint(missing),
               io::CheckpointError);

  // Wrong schema id and unknown keys are rejected too.
  const std::string wrong = temp_path("wrong_schema.json");
  {
    std::ofstream out(wrong);
    out << "{\"schema\": \"effitest-bench-v1\", \"identity\": \"x\", "
           "\"total_jobs\": 1, \"completed\": []}";
  }
  EXPECT_THROW((void)io::load_campaign_checkpoint(wrong), io::CheckpointError);
  // A schema error names the offending line, as a syntax error does.
  const std::string unknown = temp_path("unknown_key.json");
  {
    std::ofstream out(unknown);
    out << "{\n\"schema\": \"effitest-checkpoint-v1\",\n\"bogus\": 1}";
  }
  try {
    (void)io::load_campaign_checkpoint(unknown);
    FAIL() << "unknown key was accepted";
  } catch (const io::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("\"bogus\""), std::string::npos) << what;
  }
}

TEST(CampaignCheckpoint, MismatchedIdentityOrJobCountIsRejected) {
  const std::vector<CampaignJob> jobs = test_jobs();
  const std::string path = temp_path("mismatch.json");
  const std::string identity = io::campaign_identity(jobs, base_options());
  { io::CheckpointWriter writer(path, identity, jobs.size()); }
  const io::CampaignCheckpoint loaded = io::load_campaign_checkpoint(path);

  // A different seed is a different campaign.
  CampaignOptions other = base_options();
  other.flow.seed = 100;
  const std::string other_identity = io::campaign_identity(jobs, other);
  EXPECT_NE(other_identity, identity);
  EXPECT_THROW(io::validate_campaign_checkpoint(loaded, other_identity,
                                                jobs.size(), path),
               io::CheckpointError);

  // So is a different job list.
  std::vector<CampaignJob> fewer(jobs.begin(), jobs.end() - 1);
  EXPECT_NE(io::campaign_identity(fewer, base_options()), identity);
  EXPECT_THROW(io::validate_campaign_checkpoint(loaded, identity,
                                                jobs.size() - 1, path),
               io::CheckpointError);
}

TEST(CampaignCheckpoint, StaleIdentityCheckpointIsRejectedNotBlended) {
  // Written by `campaign --circuits=s9234 --quantiles=0.5,0.8413 --chips=20
  // --stop-after=1` before T_d calibration became one sample of a fixed
  // size: its identity carries the retired `calibration=2000` token, and
  // its one finished job ran at the retired quantile stream's T_d (201.90
  // ps, not today's 202.16). Same circuits, jobs and options: only the
  // identity tells them apart, and it must refuse the resume.
  const std::string path =
      std::string(EFFITEST_CORE_FIXTURES) + "/stale_identity.checkpoint.json";
  const io::CampaignCheckpoint loaded = io::load_campaign_checkpoint(path);
  ASSERT_EQ(loaded.completed.size(), 1u);
  const std::vector<CampaignJob> jobs =
      CampaignRunner::cross({"s9234"}, {0.5, 0.8413});
  ASSERT_EQ(loaded.total_jobs, jobs.size());
  CampaignOptions options;
  options.flow.chips = 20;
  const std::string identity = io::campaign_identity(jobs, options);
  ASSERT_NE(identity, loaded.identity);
  try {
    io::validate_campaign_checkpoint(loaded, identity, jobs.size(), path);
    FAIL() << "a stale checkpoint was accepted";
  } catch (const io::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("identity " + loaded.identity), std::string::npos)
        << what;
    EXPECT_NE(what.find("(" + identity + ")"), std::string::npos) << what;
  }
}

TEST(CampaignCheckpoint, RunnerValidatesInjectedResults) {
  const std::vector<CampaignJob> jobs = test_jobs();
  CampaignJobResult ok;
  ok.job = jobs[0];
  ok.completed = true;

  {  // index out of range
    CampaignOptions opts = base_options();
    opts.completed.emplace_back(jobs.size(), ok);
    EXPECT_THROW((void)CampaignRunner(opts).run(jobs), std::invalid_argument);
  }
  {  // duplicate index
    CampaignOptions opts = base_options();
    opts.completed.emplace_back(0, ok);
    opts.completed.emplace_back(0, ok);
    EXPECT_THROW((void)CampaignRunner(opts).run(jobs), std::invalid_argument);
  }
  {  // job fields do not match the submitted list
    CampaignOptions opts = base_options();
    opts.completed.emplace_back(1, ok);  // jobs[1] has a different quantile
    EXPECT_THROW((void)CampaignRunner(opts).run(jobs), std::invalid_argument);
  }
}

TEST(CampaignCheckpoint, MaxJobsStopsAtADeterministicBoundary) {
  const std::vector<CampaignJob> jobs = test_jobs();
  CampaignOptions opts = base_options();
  opts.max_jobs = 2;
  const CampaignResult partial = CampaignRunner(opts).run(jobs);
  EXPECT_EQ(partial.completed_jobs(), 2u);
  // Pending jobs are chosen in input order: exactly the first two ran.
  EXPECT_TRUE(partial.jobs[0].completed);
  EXPECT_TRUE(partial.jobs[1].completed);
  EXPECT_FALSE(partial.jobs[2].completed);
  EXPECT_FALSE(partial.jobs[3].completed);
}

}  // namespace
}  // namespace effitest
