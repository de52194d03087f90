// The committed paper specs (paper/*.scenario.json): every one loads under
// the current scenario schema, names its report after its file, runs the
// eight paper circuits at the paper's 10,000 dies, and asks for the jobs
// its table or figure needs. A schema change that breaks a spec fails
// here, before CI runs it.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "io/scenario_json.hpp"
#include "netlist/generator.hpp"

namespace effitest::io {
namespace {

constexpr const char* kSuffix = ".scenario.json";

Scenario load(const std::string& name) {
  return load_scenario_file(std::string(EFFITEST_PAPER_DIR) + "/" + name +
                            kSuffix);
}

std::vector<std::string> paper_circuits() {
  std::vector<std::string> names;
  for (const netlist::GeneratorSpec& spec : netlist::paper_benchmark_specs()) {
    names.push_back(spec.name);
  }
  return names;
}

/// Distinct circuits in job order.
std::vector<std::string> circuits_of(const Scenario& s) {
  std::vector<std::string> out;
  for (const core::CampaignJob& job : s.jobs) {
    if (std::find(out.begin(), out.end(), job.circuit) == out.end()) {
      out.push_back(job.circuit);
    }
  }
  return out;
}

TEST(PaperSpecs, EverySpecLoadsWithTheEightCircuitsAtPaperScale) {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(EFFITEST_PAPER_DIR)) {
    const std::string file = entry.path().filename().string();
    SCOPED_TRACE(file);
    const Scenario s = load_scenario_file(entry.path().string());
    // The report's bench name, which baselines and claims refer to.
    EXPECT_EQ(s.name + kSuffix, file);
    EXPECT_EQ(s.options.flow.chips, 10000u);
    EXPECT_EQ(s.options.flow.seed, 2016u);
    EXPECT_EQ(circuits_of(s), paper_circuits());
    for (const core::CampaignJob& job : s.jobs) {
      EXPECT_EQ(job.kind, core::JobKind::kFlow);
      EXPECT_LE(job.designated_period, 0.0);
    }
    names.push_back(s.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"fig7", "fig8_aligned",
                                             "fig8_mux", "table1",
                                             "table2"}));
}

TEST(PaperSpecs, TablesRunTheFullFlowAtTheirPeriods) {
  const Scenario table1 = load("table1");
  ASSERT_EQ(table1.jobs.size(), 8u);
  for (const core::CampaignJob& job : table1.jobs) {
    EXPECT_LT(job.quantile, 0.0);  // the flow's T1 convention
  }
  const Scenario table2 = load("table2");
  ASSERT_EQ(table2.jobs.size(), 16u);
  for (std::size_t i = 0; i < table2.jobs.size(); ++i) {
    EXPECT_EQ(table2.jobs[i].quantile, i % 2 == 0 ? 0.5 : 0.8413) << i;
  }
  for (const Scenario* s : {&table1, &table2}) {
    EXPECT_EQ(s->options.random_inflation, 1.0);
    EXPECT_TRUE(s->options.flow.use_prediction);
    EXPECT_TRUE(s->options.flow.test.align_with_buffers);
  }
}

TEST(PaperSpecs, Fig7InflatesTheDiesAtTheNominalT1) {
  const Scenario fig7 = load("fig7");
  EXPECT_EQ(fig7.options.random_inflation, 1.1);
  ASSERT_EQ(fig7.jobs.size(), 8u);
  for (const core::CampaignJob& job : fig7.jobs) {
    EXPECT_EQ(job.quantile, 0.5);  // calibrated on the nominal model
  }
}

TEST(PaperSpecs, Fig8TestsEveryPathWithAndWithoutAlignment) {
  const Scenario mux = load("fig8_mux");
  const Scenario aligned = load("fig8_aligned");
  for (const Scenario* s : {&mux, &aligned}) {
    EXPECT_FALSE(s->options.flow.use_prediction);
    EXPECT_EQ(s->options.random_inflation, 1.0);
    ASSERT_EQ(s->jobs.size(), 8u);
    for (const core::CampaignJob& job : s->jobs) EXPECT_LT(job.quantile, 0.0);
  }
  EXPECT_FALSE(mux.options.flow.test.align_with_buffers);
  EXPECT_TRUE(aligned.options.flow.test.align_with_buffers);
}

}  // namespace
}  // namespace effitest::io
