#include "provision.hpp"

#include <utility>

#include "netlist/generator.hpp"
#include "parallel/deterministic_for.hpp"

namespace effibench {

using namespace effitest;

namespace {

scenario::CircuitSpec spec_of(const std::string& name) {
  const std::size_t at = name.find("@x");
  if (at == std::string::npos) return scenario::PaperCircuit{name, {}};
  return scenario::ScaledCircuit{name.substr(0, at),
                                 std::stod(name.substr(at + 2)), {}};
}

netlist::GeneratorSpec generator_of(const std::string& name) {
  const std::size_t at = name.find("@x");
  if (at == std::string::npos) return netlist::paper_benchmark_spec(name);
  return scenario::scaled_paper_spec(name.substr(0, at),
                                     std::stod(name.substr(at + 2)));
}

}  // namespace

Provisioned provision(const std::vector<std::string>& names,
                      std::size_t threads) {
  Provisioned out;
  out.catalog = std::make_shared<scenario::CircuitCatalog>();
  for (const std::string& n : names) out.catalog->add(n, spec_of(n));
  out.circuits.resize(names.size());
  parallel::ForOptions fo;
  fo.threads = threads;
  parallel::deterministic_for(names.size(), fo, [&](std::size_t i) {
    out.circuits[i] = out.catalog->resolve(names[i]);
  });
  return out;
}

std::vector<Circuit> provision_traced(const std::vector<std::string>& names,
                                      std::size_t threads, Tracer& tracer) {
  std::vector<Circuit> out(names.size());
  const Tracer::Span fan_out(tracer, "parallel.for");
  parallel::ForOptions fo;
  fo.threads = threads;
  parallel::deterministic_for(names.size(), fo, [&](std::size_t i) {
    const Tracer::Span resolve(tracer, "scenario.resolve");
    netlist::GeneratedCircuit gen;
    {
      const Tracer::Span span(tracer, "netlist.generate");
      gen = netlist::generate_circuit(generator_of(names[i]));
    }
    const Tracer::Span span(tracer, "timing.model");
    out[i] = std::make_shared<const scenario::PreparedCircuit>(
        names[i], std::move(gen.netlist), netlist::CellLibrary::standard(),
        std::move(gen.buffered_ffs), timing::ModelOptions{},
        std::move(gen.critical_edges), std::move(gen.exclusive_edge_pairs));
  });
  return out;
}

}  // namespace effibench
