#pragma once
// Circuit provisioning for the workloads. Names are paper/extended
// benchmark names ("s38584") or scaled family members ("s9234@x1.8").

#include <memory>
#include <string>
#include <vector>

#include "scenario/circuit_catalog.hpp"
#include "trace.hpp"

namespace effibench {

using Circuit = std::shared_ptr<const effitest::scenario::PreparedCircuit>;

struct Provisioned {
  std::shared_ptr<effitest::scenario::CircuitCatalog> catalog;
  std::vector<Circuit> circuits;  ///< in `names` order
};

/// A fresh catalog with `names` registered, every circuit resolved
/// (CircuitCatalog::resolve), distinct circuits in parallel.
[[nodiscard]] Provisioned provision(const std::vector<std::string>& names,
                                    std::size_t threads);

/// The same circuits built by the two calls CircuitCatalog::resolve makes
/// — netlist::generate_circuit and the PreparedCircuit constructor (timing
/// model) — under spans scenario.resolve > netlist.generate, timing.model.
[[nodiscard]] std::vector<Circuit> provision_traced(
    const std::vector<std::string>& names, std::size_t threads,
    Tracer& tracer);

}  // namespace effibench
