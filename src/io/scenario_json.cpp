#include "io/scenario_json.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/json.hpp"

namespace effitest::io {

namespace {

// The JSON layer (io/json.hpp) provides the shared value, parser and strict
// schema reader; this file only owns the effitest-scenario-v1 schema
// mapping. json::ParseError is translated into ScenarioError at the
// parse_scenario boundary so the CLI exit-code mapping is unchanged.
using JsonValue = json::Value;
using JsonParser = json::Parser;
using json::SchemaReader;

// ---------------------------------------------------------------------------
// Schema mapping. Strict: unknown keys anywhere are errors — a typo like
// "quantile" must not silently run the defaults (the CLI's no-silent-
// surprises rule, applied to spec files).
// ---------------------------------------------------------------------------

constexpr const char* kSchemaId = "effitest-scenario-v1";

std::string path_stem(const std::string& path) {
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  return name;
}

std::string join_path(const std::string& base_dir, const std::string& path) {
  if (base_dir.empty() || path.empty() || path.front() == '/') return path;
  return base_dir + "/" + path;
}

/// One circuits[] entry -> (catalog name, spec). `referenced` marks a bare
/// {"paper": ...} entry that just names a pre-registered benchmark.
struct CircuitEntry {
  std::string name;
  scenario::CircuitSpec spec;
  bool referenced = false;
};

CircuitEntry read_circuit(const SchemaReader& r, const JsonValue& entry,
                          const std::string& base_dir) {
  if (entry.kind != JsonValue::Kind::kObject) {
    r.fail(entry, "circuits[] entries must be objects");
  }
  const JsonValue* paper = entry.find("paper");
  const JsonValue* bench = entry.find("bench");
  const JsonValue* generator = entry.find("generator");
  const int kinds = (paper != nullptr) + (bench != nullptr) +
                    (generator != nullptr);
  if (kinds != 1) {
    r.fail(entry,
           "each circuits[] entry needs exactly one of \"paper\", "
           "\"bench\", \"generator\"");
  }

  CircuitEntry out;
  const JsonValue* name = r.optional(entry, "name", JsonValue::Kind::kString);
  if (name != nullptr && name->string.empty()) {
    r.fail(*name, "\"name\" must be non-empty");
  }

  if (paper != nullptr) {
    r.reject_unknown_keys(entry, {"paper", "name", "seed", "scale"},
                          "a paper circuit entry");
    if (paper->kind != JsonValue::Kind::kString || paper->string.empty()) {
      r.fail(*paper, "\"paper\" must be a non-empty benchmark name");
    }
    const std::optional<std::uint64_t> seed = r.optional_integer(entry, "seed");
    const double scale = r.number(entry, "scale", 1.0);
    if (!(scale > 0.0)) r.fail(entry, "\"scale\" must be > 0");
    try {
      if (scale != 1.0) {
        // Validate benchmark name + scale bounds at parse time (exit 2
        // with a line, never a resolve-time surprise); the default name
        // matches the scaled GeneratorSpec's ("s9234@x2").
        const netlist::GeneratorSpec scaled =
            scenario::scaled_paper_spec(paper->string, scale);
        out.name = name != nullptr ? name->string : scaled.name;
        out.spec = scenario::ScaledCircuit{paper->string, scale, seed};
      } else {
        (void)netlist::paper_benchmark_spec(paper->string);
        out.name = name != nullptr ? name->string : paper->string;
        out.spec = scenario::PaperCircuit{paper->string, seed};
        out.referenced = name == nullptr && !seed.has_value();
      }
    } catch (const json::ParseError&) {
      throw;  // already carries the source/line prefix
    } catch (const std::exception& e) {
      r.fail(*paper, e.what());
    }
    return out;
  }

  if (bench != nullptr) {
    r.reject_unknown_keys(entry, {"bench", "name", "buffers", "policy"},
                          "a .bench circuit entry");
    if (bench->kind != JsonValue::Kind::kString || bench->string.empty()) {
      r.fail(*bench, "\"bench\" must be a non-empty file path");
    }
    scenario::BenchCircuit spec;
    spec.path = join_path(base_dir, bench->string);
    if (const auto buffers = r.optional_integer(entry, "buffers")) {
      spec.num_buffers = static_cast<std::size_t>(*buffers);
    }
    if (const JsonValue* policy =
            r.optional(entry, "policy", JsonValue::Kind::kString)) {
      try {
        spec.policy = scenario::buffer_policy_from(policy->string);
      } catch (const std::invalid_argument& e) {
        r.fail(*policy, e.what());
      }
    }
    out.name = name != nullptr ? name->string : path_stem(bench->string);
    out.spec = std::move(spec);
    return out;
  }

  r.reject_unknown_keys(entry, {"generator", "name"},
                        "a generator circuit entry");
  if (generator->kind != JsonValue::Kind::kObject) {
    r.fail(*generator, "\"generator\" must be an object");
  }
  r.reject_unknown_keys(*generator,
                        {"name", "flip_flops", "gates", "buffers",
                         "critical_paths", "clusters", "seed"},
                        "a generator spec");
  netlist::GeneratorSpec spec;  // shape knobs keep their defaults
  if (const JsonValue* gname =
          r.optional(*generator, "name", JsonValue::Kind::kString)) {
    spec.name = gname->string;
  }
  spec.num_flip_flops = r.count(*generator, "flip_flops", spec.num_flip_flops);
  spec.num_gates = r.count(*generator, "gates", spec.num_gates);
  spec.num_buffers = r.count(*generator, "buffers", spec.num_buffers);
  spec.num_critical_paths =
      r.count(*generator, "critical_paths", spec.num_critical_paths);
  spec.num_clusters = r.count(*generator, "clusters", spec.num_clusters);
  spec.seed = r.optional_integer(*generator, "seed").value_or(spec.seed);
  out.name = name != nullptr ? name->string : spec.name;
  out.spec = std::move(spec);
  return out;
}

template <class Valid>
std::vector<double> read_grid(const SchemaReader& r, const JsonValue& root,
                              const char* key, Valid&& valid,
                              const char* constraint) {
  std::vector<double> out;
  const JsonValue* arr = r.optional(root, key, JsonValue::Kind::kArray);
  if (arr == nullptr) return out;
  for (const JsonValue& v : arr->array) {
    if (v.kind != JsonValue::Kind::kNumber || !valid(v.number)) {
      r.fail(v, std::string("\"") + key + "\" entries must be " + constraint);
    }
    out.push_back(v.number);
  }
  return out;
}

Scenario parse_scenario_impl(const std::string& text,
                             const std::string& source,
                             const std::string& base_dir) {
  JsonParser parser(text, source);
  const JsonValue root = parser.parse();
  const SchemaReader r(parser);

  if (root.kind != JsonValue::Kind::kObject) {
    r.fail(root, "the spec must be a JSON object");
  }
  r.reject_unknown_keys(
      root,
      {"schema", "name", "chips", "seed", "threads", "inflation",
       "quantiles", "periods", "modes", "flow", "circuits"},
      "the scenario spec");

  const JsonValue& schema =
      r.require(root, "schema", JsonValue::Kind::kString);
  if (schema.string != kSchemaId) {
    r.fail(schema, "schema \"" + schema.string + "\" is not \"" + kSchemaId +
                       "\"");
  }

  Scenario scenario;
  scenario.name = path_stem(source);
  if (const JsonValue* name =
          r.optional(root, "name", JsonValue::Kind::kString)) {
    scenario.name = name->string;
  }

  core::CampaignOptions& options = scenario.options;
  options.flow.chips = r.count(root, "chips", options.flow.chips);
  options.flow.seed =
      r.optional_integer(root, "seed").value_or(options.flow.seed);
  options.threads = r.count(root, "threads", options.threads);
  if (const JsonValue* inflation =
          r.optional(root, "inflation", JsonValue::Kind::kNumber)) {
    if (!(inflation->number > 0.0)) {
      r.fail(*inflation, "\"inflation\" must be > 0");
    }
    options.random_inflation = inflation->number;
  }
  if (const JsonValue* flow =
          r.optional(root, "flow", JsonValue::Kind::kObject)) {
    r.reject_unknown_keys(*flow, {"prediction", "alignment", "exclusions"},
                          "\"flow\"");
    options.flow.use_prediction =
        r.boolean(*flow, "prediction", options.flow.use_prediction);
    options.flow.test.align_with_buffers =
        r.boolean(*flow, "alignment", options.flow.test.align_with_buffers);
    options.use_exclusions =
        r.boolean(*flow, "exclusions", options.use_exclusions);
  }

  const std::vector<double> quantiles = read_grid(
      r, root, "quantiles", [](double q) { return q >= 0.0 && q < 1.0; },
      "quantiles in [0, 1)");
  const std::vector<double> periods = read_grid(
      r, root, "periods", [](double td) { return td > 0.0; },
      "positive periods (ps)");

  // Job kinds: "modes": ["flow", "analytic"] sweeps both per circuit;
  // absent means the historical flow-only campaign.
  std::vector<core::JobKind> modes;
  if (const JsonValue* arr =
          r.optional(root, "modes", JsonValue::Kind::kArray)) {
    for (const JsonValue& v : arr->array) {
      if (v.kind != JsonValue::Kind::kString) {
        r.fail(v, "\"modes\" entries must be strings (flow, analytic)");
      }
      core::JobKind kind;
      try {
        kind = core::job_kind_from(v.string);
      } catch (const std::invalid_argument& e) {
        r.fail(v, e.what());
      }
      for (const core::JobKind seen : modes) {
        if (seen == kind) {
          r.fail(v, "mode \"" + v.string + "\" is listed twice");
        }
      }
      modes.push_back(kind);
    }
    if (modes.empty()) {
      r.fail(*arr, "\"modes\" must name at least one mode");
    }
  }
  if (modes.empty()) modes.push_back(core::JobKind::kFlow);

  const JsonValue& circuits =
      r.require(root, "circuits", JsonValue::Kind::kArray);
  if (circuits.array.empty()) {
    r.fail(circuits, "\"circuits\" must name at least one circuit");
  }

  scenario.catalog = scenario::CircuitCatalog::make_paper();
  std::vector<std::string> job_circuits;
  for (const JsonValue& entry : circuits.array) {
    CircuitEntry circuit = read_circuit(r, entry, base_dir);
    // Every catalog error must surface as a line-carrying ScenarioError —
    // e.g. an empty generator "name" or a path whose stem is empty.
    if (circuit.name.empty()) {
      r.fail(entry,
             "circuit entry yields an empty name; set a non-empty \"name\"");
    }
    if (!circuit.referenced) {
      if (scenario.catalog->contains(circuit.name)) {
        r.fail(entry, "circuit name \"" + circuit.name +
                          "\" is already registered (paper benchmarks are "
                          "pre-registered; pick a distinct \"name\" for "
                          "overrides)");
      }
      scenario.catalog->add(circuit.name, std::move(circuit.spec));
    } else if (!scenario.catalog->contains(circuit.name)) {
      r.fail(entry, "unknown paper benchmark \"" + circuit.name + "\"");
    }
    for (const std::string& seen : job_circuits) {
      if (seen == circuit.name) {
        r.fail(entry,
               "circuit \"" + circuit.name + "\" is listed twice");
      }
    }
    job_circuits.push_back(std::move(circuit.name));
  }

  // Circuit-major cross of circuits x modes x (periods + quantiles): the
  // runner groups same-circuit jobs into one preparation (flow artifacts
  // and the analytic engine result are both per-circuit caches).
  scenario.jobs =
      core::CampaignRunner::cross(job_circuits, quantiles, modes, periods);

  options.catalog = scenario.catalog;
  return scenario;
}

}  // namespace

Scenario parse_scenario(const std::string& text, const std::string& source,
                        const std::string& base_dir) {
  try {
    return parse_scenario_impl(text, source, base_dir);
  } catch (const json::ParseError& e) {
    // Syntax and schema errors alike surface as ScenarioError (CLI exit 2),
    // message format unchanged: "<source> line <n>: <reason>".
    throw ScenarioError(e.what());
  }
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ScenarioError("cannot open scenario spec: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::size_t slash = path.find_last_of('/');
  const std::string base_dir =
      slash == std::string::npos ? std::string() : path.substr(0, slash);
  return parse_scenario(buffer.str(), path, base_dir);
}

}  // namespace effitest::io
