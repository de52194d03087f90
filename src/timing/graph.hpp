#pragma once
// Static timing analysis over the gate-level netlist.
//
// Provides the structural timing facts EffiTest needs:
//  * nominal max/min delays between every connected flip-flop pair, and
//  * explicit near-critical path enumeration (gate sequences) per pair,
//    which the statistical model turns into correlated delay forms.
//
// Delay bookkeeping: a register-to-register path delay is
//   clk->Q(src FF) + sum of combinational gate delays;
// setup/hold times of the capturing FF are added by the model layer
// (D_ij = d_ij + s_j per the paper's eq. 1 discussion).

#include <cstddef>
#include <vector>

#include "netlist/cell.hpp"
#include "netlist/netlist.hpp"

namespace effitest::timing {

/// A structural register-to-register path.
struct StructuralPath {
  int src_ff = -1;
  int dst_ff = -1;
  /// Combinational gate ids in propagation order (excludes both FFs).
  std::vector<int> gates;
  /// Nominal delay: clk->Q + gate delays (no setup/hold).
  double nominal_delay = 0.0;
};

/// Max/min nominal delay summary for one connected FF pair.
struct PairDelay {
  int src_ff = -1;
  int dst_ff = -1;
  double max_delay = 0.0;  ///< longest-path nominal (clk->Q + gates)
  double min_delay = 0.0;  ///< shortest-path nominal (clk->Q + gates)
};

class TimingGraph {
 public:
  /// Arrival times across one launching FF's combinational fan-out cone.
  /// Owned by the caller and reused between sweeps: a sweep resets only the
  /// cells the previous one wrote, so its cost is the cone, not the netlist.
  struct ConeArrival {
    // Per cell: -inf when unreachable from the source FF.
    std::vector<double> max_arrival;
    std::vector<double> min_arrival;
    // Cells the last sweep wrote: the source FF, then its cone in
    // topological order.
    std::vector<int> members;
  };

  TimingGraph(const netlist::Netlist& netlist,
              const netlist::CellLibrary& library);

  /// Nominal delay of one cell (0 for inputs/outputs; clk->Q for DFFs).
  [[nodiscard]] double cell_delay(int id) const {
    return delays_[static_cast<std::size_t>(id)];
  }

  /// All connected FF pairs with nominal max/min delays, by launching FF
  /// then capturing FF id (one cone sweep per launching FF, one buffer).
  [[nodiscard]] std::vector<PairDelay> all_pair_delays() const;

  /// Forward sweep from one launching FF across its combinational fan-out
  /// cone, into `cone` (any previous contents are discarded). Feeds the
  /// per-pair queries below.
  void sweep(int src_ff, ConeArrival& cone) const;

  /// Enumerate, for the given FF pair, every path whose nominal delay is
  /// within `slack_window` of the pair's max delay, longest first, capped at
  /// `max_paths`. Always contains the critical path. `cone` is the sweep of
  /// `src_ff`.
  [[nodiscard]] std::vector<StructuralPath> near_critical_paths(
      const ConeArrival& cone, int src_ff, int dst_ff, double slack_window,
      std::size_t max_paths) const;

  /// The single shortest structural path for the pair (hold analysis).
  /// `cone` is the sweep of `src_ff`.
  [[nodiscard]] StructuralPath min_path(const ConeArrival& cone, int src_ff,
                                        int dst_ff) const;

 private:
  const netlist::Netlist* netlist_;
  std::vector<double> delays_;
  std::vector<int> rank_;  // position of each cell in the topological order
  std::vector<std::vector<int>> fanouts_;
};

}  // namespace effitest::timing
