// CampaignRunner error-path coverage: bad inputs must fail (or return)
// cleanly and up front, never crash mid-fan-out or silently run defaults;
// and the shared per-circuit T_d calibration.

#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "netlist/generator.hpp"
#include "scenario/circuit_catalog.hpp"

namespace effitest::core {
namespace {

TEST(CampaignRunner, EmptyJobListReturnsCleanly) {
  const CampaignRunner runner;
  const CampaignResult result = runner.run({});
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_EQ(result.total_seconds, 0.0);
}

TEST(CampaignRunner, CrossWithEmptyCircuitsYieldsNoJobs) {
  EXPECT_TRUE(CampaignRunner::cross({}, {0.5, 0.8413}).empty());
}

TEST(CampaignRunner, UnknownCircuitFailsWithClearError) {
  CampaignOptions options;
  options.flow.chips = 2;
  const CampaignRunner runner(options);
  const std::vector<CampaignJob> jobs{CampaignJob{"s9999_typo", 0.0, -1.0}};
  try {
    (void)runner.run(jobs);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("s9999_typo"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown circuit"), std::string::npos) << what;
  }
}

TEST(CampaignRunner, UnknownCircuitIsRejectedEvenBehindValidJobs) {
  // Validation happens up front: a bad name anywhere in the list rejects
  // the whole campaign (with the same clear error) before any job starts.
  CampaignOptions options;
  options.flow.chips = 1;
  const CampaignRunner runner(options);
  const std::vector<CampaignJob> jobs{
      CampaignJob{"s9234", 0.0, -1.0},
      CampaignJob{"definitely_not_a_circuit", 0.0, -1.0},
  };
  EXPECT_THROW((void)runner.run(jobs), std::invalid_argument);
}

TEST(CampaignRunner, QuantileJobsShareOneCalibrationSample) {
  // A circuit's quantile jobs read T_d from one calibration sample; each
  // must equal what a campaign asking for that quantile alone calibrates.
  auto catalog = std::make_shared<scenario::CircuitCatalog>();
  netlist::GeneratorSpec spec;
  spec.name = "tiny";
  spec.num_flip_flops = 24;
  spec.num_gates = 150;
  spec.num_buffers = 2;
  spec.num_critical_paths = 10;
  spec.seed = 5;
  catalog->add("tiny", spec);
  CampaignOptions options;
  options.catalog = catalog;
  options.flow.chips = 10;
  options.flow.seed = 31;
  const CampaignRunner runner(options);

  const CampaignResult both =
      runner.run(CampaignRunner::cross({"tiny"}, {0.5, 0.8413}));
  ASSERT_EQ(both.jobs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const CampaignJob& job = both.jobs[i].job;
    const CampaignResult alone = runner.run({job});
    EXPECT_EQ(both.jobs[i].metrics.designated_period,
              alone.jobs[0].metrics.designated_period)
        << "q=" << job.quantile;
  }
  EXPECT_LT(both.jobs[0].metrics.designated_period,
            both.jobs[1].metrics.designated_period);
}

}  // namespace
}  // namespace effitest::core
