#pragma once
// Synthetic clustered benchmark generator.
//
// The paper's experiments run on ISCAS89 / TAU13 circuits mapped to an
// industrial library, with tuning buffers inserted by a method like [3].
// Those artifacts are not available, so this generator produces circuits that
// reproduce the *published statistics* of each benchmark row in Table 1:
//
//   ns  flip-flops,  ng  logic gates,  nb  tuning buffers,
//   np  monitored FF-pair paths (paths incident to buffered flip-flops),
//
// with the Fig.-5 physical structure the method exploits: critical paths
// cluster around buffered "hub" flip-flops, hub fan-in/fan-out cones share
// gate trunks, and clusters are tightly placed so intra-cluster path delays
// are strongly correlated while inter-cluster correlation falls to the global
// floor.
//
// The output is an ordinary Netlist (so the whole downstream pipeline is
// identical for parsed .bench circuits) plus metadata: which FFs carry
// buffers and which FF pairs are monitored / hold-checked.

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "stats/rng.hpp"

namespace effitest::netlist {

struct GeneratorSpec {
  std::string name = "synthetic";
  std::size_t num_flip_flops = 200;   ///< ns
  std::size_t num_gates = 5000;       ///< ng (approximate target, padded)
  std::size_t num_buffers = 2;        ///< nb
  std::size_t num_critical_paths = 80;  ///< np (exact)
  std::size_t num_clusters = 0;       ///< 0 = derive from nb (ceil(nb/2))
  std::uint64_t seed = 1;

  double hold_edge_fraction = 0.25;  ///< fraction of critical edges that also
                                     ///< get a parallel 1-2 gate short path
  /// Expected fraction of monitored edges that get one mutual-exclusion
  /// partner (logic masking, §3.2: "some paths in a test batch cannot be
  /// activated by ATPG vectors at the same time").
  double exclusive_fraction = 0.02;
};

struct GeneratedCircuit {
  Netlist netlist;
  GeneratorSpec spec;
  /// Flip-flop cell ids that carry a post-silicon tuning buffer.
  std::vector<int> buffered_ffs;
  /// Monitored FF-pair edges (src FF id, dst FF id): the paths whose max
  /// delays are required for buffer configuration (column np in Table 1).
  std::vector<std::pair<int, int>> critical_edges;
  /// FF-pair edges that have a short parallel path and therefore a
  /// hold-time exposure (§3.5).
  std::vector<std::pair<int, int>> hold_edges;
  /// Pairs of indices into critical_edges that logic masking prevents from
  /// being sensitized in the same test batch (§3.2).
  std::vector<std::pair<std::size_t, std::size_t>> exclusive_edge_pairs;
};

/// Build a synthetic circuit per `spec`. Deterministic in spec.seed.
/// Throws NetlistError when the spec is inconsistent (e.g. nb > ns).
[[nodiscard]] GeneratedCircuit generate_circuit(const GeneratorSpec& spec);

/// Specs matching the 8 benchmark rows of Table 1 of the paper
/// (s9234, s13207, s15850, s38584, mem_ctrl, usb_funct, ac97_ctrl,
/// pci_bridge32), including their published ns/ng/nb/np statistics.
[[nodiscard]] std::vector<GeneratorSpec> paper_benchmark_specs();

/// The largest ISCAS89 circuits beyond the paper's Table 1 (s35932,
/// s38417), with published ns/ng and Table-1-density nb/np — the
/// full-ISCAS89 scale the analytic engine benchmarks open up.
[[nodiscard]] std::vector<GeneratorSpec> extended_benchmark_specs();

/// Convenience: the spec for one named paper or extended benchmark.
/// Throws if unknown.
[[nodiscard]] GeneratorSpec paper_benchmark_spec(const std::string& name);

}  // namespace effitest::netlist
