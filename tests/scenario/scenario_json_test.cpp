// Scenario spec parsing: the declarative campaign surface must map every
// schema field onto (catalog, jobs, options) exactly and reject every
// malformed input with a clear, line-carrying ScenarioError — a typo in a
// spec file must never silently run the defaults.

#include "io/scenario_json.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

namespace effitest::io {
namespace {

constexpr const char* kMixedSpec = R"({
  // comments are allowed
  "schema": "effitest-scenario-v1",
  "name": "mixed",
  "chips": 25,
  "seed": 99,
  "threads": 2,
  "inflation": 1.25,
  "quantiles": [0.5, 0.8413],
  "periods": [5000.0],
  "flow": { "prediction": false, "alignment": false, "exclusions": true },
  "circuits": [
    { "paper": "s9234" },
    { "paper": "s13207", "name": "s13207_reseeded", "seed": 42 },
    { "paper": "s9234", "name": "s9234_double", "scale": 2.0 },
    { "bench": "demo.bench", "buffers": 3, "policy": "worst-delay" },
    { "generator": { "name": "inline1", "flip_flops": 48, "gates": 400,
                     "buffers": 2, "critical_paths": 16, "seed": 5 } }
  ]
})";

TEST(ScenarioJson, ParsesMixedSpecIntoCatalogJobsAndOptions) {
  const Scenario s = parse_scenario(kMixedSpec, "mixed.json", "/specs");
  EXPECT_EQ(s.name, "mixed");
  ASSERT_NE(s.catalog, nullptr);
  EXPECT_EQ(s.options.catalog.get(), s.catalog.get());

  // Paper + extended benchmarks pre-registered + the four new entries.
  EXPECT_EQ(s.catalog->names().size(), 14u);
  EXPECT_TRUE(s.catalog->contains("s9234"));
  EXPECT_TRUE(s.catalog->contains("s13207_reseeded"));
  EXPECT_TRUE(s.catalog->contains("s9234_double"));
  EXPECT_TRUE(s.catalog->contains("demo"));
  EXPECT_TRUE(s.catalog->contains("inline1"));

  // Relative .bench paths anchor on the spec's directory.
  const auto bench =
      std::get<scenario::BenchCircuit>(s.catalog->spec("demo"));
  EXPECT_EQ(bench.path, "/specs/demo.bench");
  EXPECT_EQ(bench.num_buffers, 3u);
  EXPECT_EQ(bench.policy, scenario::BufferPolicy::kWorstDelay);

  const auto scaled =
      std::get<scenario::ScaledCircuit>(s.catalog->spec("s9234_double"));
  EXPECT_EQ(scaled.base, "s9234");
  EXPECT_EQ(scaled.scale, 2.0);

  const auto reseeded =
      std::get<scenario::PaperCircuit>(s.catalog->spec("s13207_reseeded"));
  EXPECT_EQ(reseeded.seed, 42u);

  const auto inline1 =
      std::get<netlist::GeneratorSpec>(s.catalog->spec("inline1"));
  EXPECT_EQ(inline1.num_flip_flops, 48u);
  EXPECT_EQ(inline1.seed, 5u);

  // Circuit-major jobs: 5 circuits x (1 period + 2 quantiles).
  ASSERT_EQ(s.jobs.size(), 15u);
  EXPECT_EQ(s.jobs[0].circuit, "s9234");
  EXPECT_EQ(s.jobs[0].designated_period, 5000.0);
  EXPECT_EQ(s.jobs[0].quantile, -1.0);
  EXPECT_EQ(s.jobs[1].quantile, 0.5);
  EXPECT_EQ(s.jobs[2].quantile, 0.8413);
  EXPECT_EQ(s.jobs[3].circuit, "s13207_reseeded");

  EXPECT_EQ(s.options.flow.chips, 25u);
  EXPECT_EQ(s.options.flow.seed, 99u);
  EXPECT_EQ(s.options.threads, 2u);
  EXPECT_EQ(s.options.random_inflation, 1.25);
  EXPECT_FALSE(s.options.flow.use_prediction);
  EXPECT_FALSE(s.options.flow.test.align_with_buffers);
  EXPECT_TRUE(s.options.use_exclusions);
}

TEST(ScenarioJson, ExplicitZeroSeedAndBuffersSurviveParsing) {
  const Scenario s = parse_scenario(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [
             { "paper": "s9234", "name": "z", "seed": 0 },
             { "bench": "b.bench", "name": "nb0", "buffers": 0 } ] })",
      "zero.json");
  const auto paper = std::get<scenario::PaperCircuit>(s.catalog->spec("z"));
  ASSERT_TRUE(paper.seed.has_value());
  EXPECT_EQ(*paper.seed, 0u);
  const auto bench =
      std::get<scenario::BenchCircuit>(s.catalog->spec("nb0"));
  ASSERT_TRUE(bench.num_buffers.has_value());
  EXPECT_EQ(*bench.num_buffers, 0u);
}

TEST(ScenarioJson, MinimalSpecDefaultsToOneJobPerCircuit) {
  const Scenario s = parse_scenario(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "paper": "s9234" } ] })",
      "min.json");
  EXPECT_EQ(s.name, "min");
  EXPECT_EQ(s.catalog->names().size(), 10u);  // bare reference, no re-add
  ASSERT_EQ(s.jobs.size(), 1u);
  EXPECT_EQ(s.jobs[0].circuit, "s9234");
  EXPECT_EQ(s.jobs[0].designated_period, 0.0);
  EXPECT_EQ(s.jobs[0].quantile, -1.0);
}

void expect_error(const std::string& text, const std::string& needle) {
  try {
    (void)parse_scenario(text, "spec.json");
    FAIL() << "expected ScenarioError for: " << text;
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spec.json"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos)
        << "missing \"" << needle << "\" in: " << what;
  }
}

TEST(ScenarioJson, MalformedInputsRaiseClearErrors) {
  expect_error("{", "unexpected end of input");
  expect_error("not json", "unexpected character");
  expect_error("{}", "missing required key \"schema\"");
  expect_error(R"({ "schema": "effitest-scenario-v2", "circuits": [] })",
               "is not \"effitest-scenario-v1\"");
  expect_error(R"({ "schema": "effitest-scenario-v1" })",
               "missing required key \"circuits\"");
  expect_error(R"({ "schema": "effitest-scenario-v1", "circuits": [] })",
               "at least one circuit");
  expect_error(
      R"({ "schema": "effitest-scenario-v1", "quantile": [0.5],
           "circuits": [ { "paper": "s9234" } ] })",
      "unknown key \"quantile\"");
  // The calibration sample size is a constant now: an old spec that still
  // sets it fails loudly instead of running another sample size.
  expect_error(
      R"({ "schema": "effitest-scenario-v1", "calibration_chips": 300,
           "circuits": [ { "paper": "s9234" } ] })",
      "unknown key \"calibration_chips\"");
  expect_error(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "paper": "s9234", "benchers": 3 } ] })",
      "unknown key \"benchers\"");
  expect_error(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "paper": "s9234", "bench": "x.bench" } ] })",
      "exactly one of");
  expect_error(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "generator": 3 } ] })",
      "must be an object");
  expect_error(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "paper": "ghost_circuit" } ] })",
      "ghost_circuit");
  expect_error(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "paper": "s9234", "seed": 7 } ] })",
      "already registered");
  expect_error(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "bench": "a.bench", "name": "d" },
                         { "bench": "b.bench", "name": "d" } ] })",
      "already registered");
  expect_error(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "paper": "s9234" }, { "paper": "s9234" } ] })",
      "listed twice");
  expect_error(
      R"({ "schema": "effitest-scenario-v1", "quantiles": [1.5],
           "circuits": [ { "paper": "s9234" } ] })",
      "quantiles in [0, 1)");
  expect_error(
      R"({ "schema": "effitest-scenario-v1", "periods": [-3.0],
           "circuits": [ { "paper": "s9234" } ] })",
      "positive periods");
  expect_error(
      R"({ "schema": "effitest-scenario-v1", "chips": 2.5,
           "circuits": [ { "paper": "s9234" } ] })",
      "non-negative integer");
  expect_error(
      R"({ "schema": "effitest-scenario-v1", "seed": 1e300,
           "circuits": [ { "paper": "s9234" } ] })",
      "below 2^53");
  expect_error(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "bench": "x.bench", "policy": "bogus" } ] })",
      "unknown buffer policy");
  expect_error(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "paper": "s9234", "scale": 0 } ] })",
      "\"scale\" must be > 0");
  expect_error(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "paper": "s9234", "name": "huge",
                           "scale": 1e30 } ] })",
      "exceeds 1e8 cells");
  expect_error(
      R"({ "schema": "effitest-scenario-v1", "flow": { "predict": true },
           "circuits": [ { "paper": "s9234" } ] })",
      "unknown key \"predict\"");
  expect_error(
      R"({ "schema": "effitest-scenario-v1", "schema": "x",
           "circuits": [ { "paper": "s9234" } ] })",
      "duplicate key");
  expect_error(R"({ "schema": "effitest-scenario-v1",
                    "circuits": [ { "paper": "s9234" } ] } trailing)",
               "trailing content");
  expect_error(
      R"({ "schema": "effitest-scenario-v1",
           "circuits": [ { "generator": { "name": "" } } ] })",
      "empty name");
  // A pathological document must error out, never overflow the stack.
  expect_error(std::string(100000, '['), "nesting too deep");
}

TEST(ScenarioJson, ErrorsCarryTheOffendingLine) {
  try {
    (void)parse_scenario("{\n  \"schema\": \"effitest-scenario-v1\",\n"
                         "  \"circuits\": [\n    { \"paper\": 3 }\n  ]\n}",
                         "lines.json");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("lines.json line 4"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioJson, LoadScenarioFileResolvesRelativeBenchPaths) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "scenario_file_test.json";
  {
    std::ofstream out(path);
    out << R"({ "schema": "effitest-scenario-v1",
                "circuits": [ { "bench": "rel.bench", "name": "r" } ] })";
  }
  const Scenario s = load_scenario_file(path);
  const auto bench = std::get<scenario::BenchCircuit>(s.catalog->spec("r"));
  // TempDir ends with '/'; the joined path must point inside it.
  EXPECT_EQ(bench.path.find(dir), 0u) << bench.path;
  EXPECT_NE(bench.path.find("rel.bench"), std::string::npos) << bench.path;

  EXPECT_THROW((void)load_scenario_file(dir + "no_such_spec.json"),
               ScenarioError);
}

}  // namespace
}  // namespace effitest::io
