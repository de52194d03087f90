#pragma once
// Declarative campaign specs: a JSON file naming circuits (paper /
// generator / .bench / scaled), the T_d grid and the flow knobs, loaded
// into a ready-to-run (catalog, jobs, options) triple for
// core::CampaignRunner — the `effitest_cli campaign --spec=file.json`
// surface.
//
// Schema "effitest-scenario-v1" (`//` line comments are allowed, so specs
// can be annotated — see examples/mixed_campaign.scenario.json):
//
//   {
//     "schema": "effitest-scenario-v1",
//     "name": "mixed-demo",            // default: file stem; --json bench
//     "chips": 200,                    // optional flow/campaign knobs
//     "seed": 2016,
//     "threads": 0,
//     "inflation": 1.0,
//     "quantiles": [0.5, 0.8413],      // T_d calibration quantiles
//     "periods": [6000.0],             // explicit T_d values (ps)
//     "modes": ["flow", "analytic"],   // job kinds; default ["flow"]
//     "flow": { "prediction": true, "alignment": true,
//               "exclusions": false },
//     "circuits": [                    // required, non-empty
//       { "paper": "s9234" },                          // pre-registered
//       { "paper": "s9234", "name": "alt", "seed": 7 },// reseeded copy
//       { "paper": "s9234", "name": "big", "scale": 2.0 },  // scaled
//       { "bench": "my.bench", "buffers": 4, "policy": "hub-count" },
//       { "generator": { "name": "inline1", "flip_flops": 64,
//                        "gates": 600, "buffers": 2,
//                        "critical_paths": 24, "seed": 5 } }
//     ]
//   }
//
// Jobs are the circuit-major cross of circuits x modes x (periods +
// quantiles) (one default-convention job per circuit and mode when both
// grids are empty), so the runner prepares each circuit once.
// Jobs without a period read T_d from core::calibration_sample at their
// quantile (T1 when none). "inflation" widens the random variation of the
// sampled dies (Fig. 7); T_d stays the design's. The paper's tables and
// figures are specs of this schema under paper/. The catalog starts from
// the eight paper benchmarks; a {"paper": ...} entry without overrides just
// references the pre-registered circuit, while any override (seed, scale)
// must pick a distinct "name". Relative .bench paths resolve against the
// spec file's directory. Every malformed input — bad JSON, unknown keys,
// duplicate names, out-of-range values — raises ScenarioError with the
// offending line; the CLI maps it to exit code 2.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "scenario/circuit_catalog.hpp"

namespace effitest::io {

/// Malformed scenario spec (syntax or schema). `what()` carries the source
/// name and, for syntax errors, the line number.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A loaded campaign spec, ready to run.
struct Scenario {
  std::string name;  ///< "name" field, else the source/file stem; the
                     ///< bench name of `campaign --spec --json` reports
  /// Paper benchmarks + the spec's circuits. Also set as
  /// `options.catalog`; kept mutable here so callers can extend it.
  std::shared_ptr<scenario::CircuitCatalog> catalog;
  std::vector<core::CampaignJob> jobs;  ///< circuit-major
  core::CampaignOptions options;        ///< catalog + flow knobs applied
};

/// Parse a scenario spec from text. `source` names the spec in errors;
/// `base_dir` (may be empty) anchors relative .bench paths.
[[nodiscard]] Scenario parse_scenario(const std::string& text,
                                      const std::string& source = "scenario",
                                      const std::string& base_dir = "");

/// Load a scenario spec file. Relative .bench paths inside resolve
/// against the file's directory. Throws ScenarioError on unreadable
/// files and malformed content.
[[nodiscard]] Scenario load_scenario_file(const std::string& path);

}  // namespace effitest::io
