// CircuitCatalog contract: paper-name resolution performs exactly the
// historical construction (golden metrics unchanged), resolution is
// memoized per (name, inflation) and safe under concurrent resolve, and
// .bench-backed circuits run end to end through the same campaign path as
// paper ones.

#include "scenario/circuit_catalog.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/flow.hpp"
#include "core/tuner_service.hpp"
#include "core/yield.hpp"
#include "netlist/generator.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace effitest::scenario {
namespace {

constexpr const char* kDemoBench = R"(# s27-class demo
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
G17 = NOT(G11)
)";

std::string write_demo_bench(const char* filename) {
  const std::string path = ::testing::TempDir() + filename;
  std::ofstream out(path);
  out << kDemoBench;
  return path;
}

/// A small synthetic circuit so construction-heavy tests stay fast.
netlist::GeneratorSpec small_spec(const char* name, std::uint64_t seed) {
  netlist::GeneratorSpec spec;
  spec.name = name;
  spec.num_flip_flops = 40;
  spec.num_gates = 300;
  spec.num_buffers = 2;
  spec.num_critical_paths = 12;
  spec.seed = seed;
  return spec;
}

core::FlowOptions fast_flow_options() {
  core::FlowOptions opts;
  opts.chips = 10;
  opts.hold.samples = 100;
  opts.threads = 1;
  return opts;
}

TEST(CircuitCatalog, PaperResolutionBitIdenticalToDirectConstruction) {
  // The historical construction path, verbatim.
  const netlist::GeneratedCircuit gen =
      netlist::generate_circuit(netlist::paper_benchmark_spec("s9234"));
  const netlist::CellLibrary library = netlist::CellLibrary::standard();
  const timing::CircuitModel model(gen.netlist, library, gen.buffered_ffs);
  const core::Problem direct(model);

  const auto catalog = CircuitCatalog::make_paper();
  const auto prepared = catalog->resolve("s9234");

  ASSERT_EQ(prepared->model.num_pairs(), model.num_pairs());
  EXPECT_EQ(prepared->netlist.num_flip_flops(), gen.netlist.num_flip_flops());
  EXPECT_EQ(prepared->netlist.num_combinational_gates(),
            gen.netlist.num_combinational_gates());
  EXPECT_EQ(prepared->buffered_ffs, gen.buffered_ffs);
  // Prior means must be bit-identical, not just close.
  const std::vector<double> direct_means = model.max_means();
  const std::vector<double> catalog_means = prepared->model.max_means();
  ASSERT_EQ(catalog_means.size(), direct_means.size());
  for (std::size_t i = 0; i < direct_means.size(); ++i) {
    EXPECT_EQ(catalog_means[i], direct_means[i]) << "pair " << i;
  }

  // And so must a whole flow run (the golden-metrics contract, in small).
  const core::FlowOptions opts = fast_flow_options();
  const core::FlowMetrics a = core::run_flow(direct, opts).metrics;
  const core::FlowMetrics b = core::run_flow(prepared->problem, opts).metrics;
  EXPECT_EQ(a.np, b.np);
  EXPECT_EQ(a.npt, b.npt);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.designated_period, b.designated_period);
  EXPECT_EQ(a.epsilon_ps, b.epsilon_ps);
  EXPECT_EQ(a.ta, b.ta);
  EXPECT_EQ(a.ta_pathwise, b.ta_pathwise);
  EXPECT_EQ(a.ra, b.ra);
  EXPECT_EQ(a.yield_no_buffer, b.yield_no_buffer);
  EXPECT_EQ(a.yield_proposed, b.yield_proposed);
  EXPECT_EQ(a.yield_ideal, b.yield_ideal);
}

TEST(CircuitCatalog, ResolveIsMemoizedPerNameAndInflation) {
  CircuitCatalog catalog;
  catalog.add("tiny", small_spec("tiny", 7));
  const auto first = catalog.resolve("tiny");
  const auto second = catalog.resolve("tiny");
  EXPECT_EQ(first.get(), second.get());  // the same bundle, not a copy

  const auto inflated = catalog.resolve("tiny", 1.5);
  EXPECT_NE(first.get(), inflated.get());
  EXPECT_EQ(inflated.get(), catalog.resolve("tiny", 1.5).get());
}

TEST(CircuitCatalog, SameCircuitSharedAcrossCampaignJobs) {
  // Two campaigns over one catalog resolve the same shared bundle: the
  // second run must not rebuild (same pointer observed through resolve).
  auto catalog = std::make_shared<CircuitCatalog>();
  catalog->add("tiny", small_spec("tiny", 7));
  const auto before = catalog->resolve("tiny");

  core::CampaignOptions options;
  options.flow = fast_flow_options();
  options.catalog = catalog;
  const std::vector<core::CampaignJob> jobs{
      core::CampaignJob{"tiny", 0.0, -1.0},
      core::CampaignJob{"tiny", 0.0, 0.5},
  };
  const core::CampaignResult result = core::CampaignRunner(options).run(jobs);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(catalog->resolve("tiny").get(), before.get());
}

TEST(CircuitCatalog, ConcurrentResolveConstructsOnce) {
  CircuitCatalog catalog;
  catalog.add("a", small_spec("a", 1));
  catalog.add("b", small_spec("b", 2));
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const PreparedCircuit>> got(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&catalog, &got, i] {
        got[i] = catalog.resolve(i % 2 == 0 ? "a" : "b");
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 2; i < kThreads; ++i) {
    EXPECT_EQ(got[i].get(), got[i % 2].get()) << i;
  }
  EXPECT_NE(got[0].get(), got[1].get());
}

TEST(CircuitCatalog, UnknownAndDuplicateNamesThrowClearly) {
  CircuitCatalog catalog;
  catalog.add("tiny", small_spec("tiny", 7));
  try {
    (void)catalog.resolve("typo");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown circuit"), std::string::npos) << what;
    EXPECT_NE(what.find("typo"), std::string::npos) << what;
    EXPECT_NE(what.find("tiny"), std::string::npos) << what;  // the catalog
  }
  EXPECT_THROW(catalog.add("tiny", small_spec("tiny", 8)),
               std::invalid_argument);
  EXPECT_THROW(catalog.add("", small_spec("x", 9)), std::invalid_argument);
  EXPECT_THROW((void)catalog.describe("typo"), std::invalid_argument);
}

TEST(CircuitCatalog, FailedResolveIsEvictedForRetry) {
  CircuitCatalog catalog;
  const std::string path = ::testing::TempDir() + "appears_later.bench";
  std::remove(path.c_str());
  catalog.add("late", BenchCircuit{path, 2, BufferPolicy::kHubCount});
  EXPECT_THROW((void)catalog.resolve("late"), std::exception);
  {
    std::ofstream out(path);
    out << kDemoBench;
  }
  const auto prepared = catalog.resolve("late");  // retried, not cached fail
  EXPECT_EQ(prepared->netlist.num_flip_flops(), 3u);
}

TEST(CircuitCatalog, ScaledFamilyScalesTableOneStatistics) {
  const netlist::GeneratorSpec base = netlist::paper_benchmark_spec("s9234");
  const netlist::GeneratorSpec half = scaled_paper_spec("s9234", 0.5);
  EXPECT_EQ(half.name, "s9234@x0.5");
  EXPECT_EQ(half.num_flip_flops, (base.num_flip_flops + 1) / 2);
  EXPECT_EQ(half.num_critical_paths, base.num_critical_paths / 2);
  EXPECT_GE(half.num_buffers, 1u);
  EXPECT_THROW((void)scaled_paper_spec("s9234", 0.0), std::invalid_argument);
  EXPECT_THROW((void)scaled_paper_spec("s9234", 1e30), std::invalid_argument);
  EXPECT_THROW((void)scaled_paper_spec("nope", 2.0), std::exception);

  CircuitCatalog catalog;
  catalog.add("half", ScaledCircuit{"s9234", 0.5, 0});
  const auto prepared = catalog.resolve("half");
  EXPECT_EQ(prepared->netlist.num_flip_flops(), half.num_flip_flops);
  EXPECT_GT(prepared->model.num_pairs(), 0u);
}

TEST(CircuitCatalog, ExplicitZeroOverridesAreHonored) {
  // seed 0 is a real seed, not "keep the historical default".
  netlist::GeneratorSpec zero_spec = netlist::paper_benchmark_spec("s9234");
  zero_spec.seed = 0;
  const netlist::GeneratedCircuit direct =
      netlist::generate_circuit(zero_spec);
  const timing::CircuitModel direct_model(
      direct.netlist, netlist::CellLibrary::standard(), direct.buffered_ffs);

  CircuitCatalog catalog;
  catalog.add("zero_seed", PaperCircuit{"s9234", 0});
  const auto prepared = catalog.resolve("zero_seed");
  EXPECT_EQ(prepared->buffered_ffs, direct.buffered_ffs);
  const std::vector<double> direct_means = direct_model.max_means();
  const std::vector<double> catalog_means = prepared->model.max_means();
  ASSERT_EQ(catalog_means.size(), direct_means.size());
  for (std::size_t i = 0; i < direct_means.size(); ++i) {
    EXPECT_EQ(catalog_means[i], direct_means[i]) << "pair " << i;
  }

  // buffers = 0 builds the untunable baseline, not the auto default.
  const std::string path = write_demo_bench("zero_buffers.bench");
  catalog.add("zero_buffers", BenchCircuit{path, 0, BufferPolicy::kHubCount});
  EXPECT_TRUE(catalog.resolve("zero_buffers")->buffered_ffs.empty());
  EXPECT_EQ(catalog.resolve("zero_buffers")->model.num_pairs(), 0u);
}

TEST(CircuitCatalog, BenchCircuitResolvesWithBothPolicies) {
  const std::string path = write_demo_bench("catalog_policies.bench");
  CircuitCatalog catalog;
  catalog.add("hub", BenchCircuit{path, 2, BufferPolicy::kHubCount});
  catalog.add("worst", BenchCircuit{path, 2, BufferPolicy::kWorstDelay});
  for (const char* name : {"hub", "worst"}) {
    const auto prepared = catalog.resolve(name);
    EXPECT_EQ(prepared->netlist.num_flip_flops(), 3u) << name;
    EXPECT_EQ(prepared->buffered_ffs.size(), 2u) << name;
    EXPECT_GT(prepared->model.num_pairs(), 0u) << name;
    EXPECT_TRUE(prepared->exclusions.empty()) << name;  // no metadata
  }
  EXPECT_THROW((void)buffer_policy_from("bogus"), std::invalid_argument);
  EXPECT_EQ(buffer_policy_from("hub-count"), BufferPolicy::kHubCount);
  EXPECT_EQ(buffer_policy_from("worst-delay"), BufferPolicy::kWorstDelay);
}

TEST(CircuitCatalog, BenchBackedCampaignEndToEnd) {
  const std::string path = write_demo_bench("catalog_campaign.bench");
  auto catalog = std::make_shared<CircuitCatalog>();
  catalog->add("demo", BenchCircuit{path, 2, BufferPolicy::kHubCount});
  catalog->add("tiny", small_spec("tiny", 7));

  core::CampaignOptions options;
  options.flow = fast_flow_options();
  options.catalog = catalog;
  const std::vector<core::CampaignJob> jobs{
      core::CampaignJob{"demo", 0.0, -1.0},
      core::CampaignJob{"tiny", 0.0, -1.0},
  };
  const core::CampaignResult result = core::CampaignRunner(options).run(jobs);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].metrics.ns, 3u);  // the .bench import
  for (const core::CampaignJobResult& job : result.jobs) {
    EXPECT_GT(job.metrics.np, 0u) << job.job.circuit;
    EXPECT_GT(job.metrics.designated_period, 0.0) << job.job.circuit;
    EXPECT_GE(job.metrics.yield_proposed, 0.0) << job.job.circuit;
    EXPECT_LE(job.metrics.yield_proposed, 1.0) << job.job.circuit;
  }

  // A .bench name unknown to the catalog still fails up front.
  EXPECT_THROW(
      (void)core::CampaignRunner(options).run(
          {core::CampaignJob{"missing", 0.0, -1.0}}),
      std::invalid_argument);
}

TEST(CircuitCatalog, InflatedCampaignTakesQuantileTdFromTheNominalDesign) {
  // Fig. 7: the dies get 10% more random variation, the clock stays the
  // design's T1. The q=0.5 job and the default-T1 job must both equal the
  // loop written out by hand: calibrate on the nominal model, run the flow
  // on the inflated one.
  auto catalog = std::make_shared<CircuitCatalog>();
  catalog->add("tiny", small_spec("tiny", 7));
  core::CampaignOptions options;
  options.flow = fast_flow_options();
  options.catalog = catalog;
  options.random_inflation = 1.1;
  const core::CampaignResult result = core::CampaignRunner(options).run(
      {core::CampaignJob{"tiny", 0.0, 0.5}, core::CampaignJob{"tiny", 0.0}});
  ASSERT_EQ(result.jobs.size(), 2u);

  const auto calibrate = [&](double inflation) {
    return stats::sorted_quantile(
        core::calibration_sample(catalog->resolve("tiny", inflation)->problem,
                                 options.flow.seed),
        0.5);
  };
  const double td = calibrate(1.0);
  ASSERT_NE(td, calibrate(1.1));  // the two models disagree on T1
  core::FlowOptions flow = options.flow;
  flow.designated_period = td;
  const core::FlowMetrics want =
      core::run_flow(catalog->resolve("tiny", 1.1)->problem, flow).metrics;

  for (const core::CampaignJobResult& job : result.jobs) {
    const core::FlowMetrics& got = job.metrics;
    EXPECT_EQ(got.designated_period, td);
    EXPECT_EQ(got.npt, want.npt);
    EXPECT_EQ(got.ta, want.ta);
    EXPECT_EQ(got.yield_no_buffer, want.yield_no_buffer);
    EXPECT_EQ(got.yield_ideal, want.yield_ideal);
    EXPECT_EQ(got.yield_proposed, want.yield_proposed);
  }
}

TEST(CircuitCatalog, CampaignBuildsOnlyTheModelsItsJobsNeed) {
  // Resolve failures show builds: once the .bench file is gone, only
  // already-built (circuit, inflation) keys can still resolve.
  const std::string path = write_demo_bench("campaign_keys.bench");
  const std::string path2 = write_demo_bench("campaign_keys2.bench");
  auto catalog = std::make_shared<CircuitCatalog>();
  catalog->add("demo", BenchCircuit{path, 2, BufferPolicy::kHubCount});
  catalog->add("demo2", BenchCircuit{path2, 2, BufferPolicy::kHubCount});
  const auto nominal = catalog->resolve("demo");
  const auto inflated = catalog->resolve("demo", 1.1);
  (void)catalog->resolve("demo2", 1.1);  // demo2 has no nominal model
  std::remove(path.c_str());
  std::remove(path2.c_str());

  core::CampaignOptions options;
  options.flow = fast_flow_options();
  options.catalog = catalog;
  const core::CampaignJob t1{"demo", 0.0, -1.0};
  const core::CampaignJob q50{"demo", 0.0, 0.5};
  // Nominal: one model serves the dies and the calibration.
  EXPECT_NO_THROW((void)core::CampaignRunner(options).run({q50, t1}));
  EXPECT_EQ(catalog->resolve("demo").get(), nominal.get());
  // Inflated: the dies' model, plus the nominal one for T_d.
  options.random_inflation = 1.1;
  EXPECT_NO_THROW((void)core::CampaignRunner(options).run({q50, t1}));
  EXPECT_EQ(catalog->resolve("demo", 1.1).get(), inflated.get());
  // A job with an explicit T_d never needs the nominal model; a default-T1
  // job calibrates on it like a quantile job.
  const core::CampaignJob td_2{"demo2", inflated->model.max_means()[0], -1.0};
  const core::CampaignJob t1_2{"demo2", 0.0, -1.0};
  const core::CampaignJob q50_2{"demo2", 0.0, 0.5};
  EXPECT_NO_THROW((void)core::CampaignRunner(options).run({td_2}));
  EXPECT_THROW((void)core::CampaignRunner(options).run({t1_2}),
               std::exception);
  EXPECT_THROW((void)core::CampaignRunner(options).run({q50_2}),
               std::exception);
}

TEST(CircuitCatalog, TunerServiceKeepsProvisionedCircuitAlive) {
  std::shared_ptr<const PreparedCircuit> circuit;
  {
    CircuitCatalog catalog;
    catalog.add("tiny", small_spec("tiny", 7));
    circuit = catalog.resolve("tiny");
  }  // catalog gone; the bundle lives on
  const core::FlowOptions opts = fast_flow_options();
  const core::TunerService service(circuit, opts);
  const std::size_t buffers = circuit->problem.num_buffers();
  circuit.reset();  // the service holds the last reference now
  EXPECT_GT(service.designated_period(), 0.0);
  EXPECT_EQ(service.problem().num_buffers(), buffers);
  core::TuningSession session = service.begin_chip();
  EXPECT_EQ(session.phase(), core::SessionPhase::kTest);
  EXPECT_THROW(core::TunerService(nullptr, opts), std::invalid_argument);
}

}  // namespace
}  // namespace effitest::scenario
