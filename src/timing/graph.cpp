#include "timing/graph.hpp"

#include <algorithm>
#include <limits>

namespace effitest::timing {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
std::size_t at(int id) { return static_cast<std::size_t>(id); }
}  // namespace

TimingGraph::TimingGraph(const netlist::Netlist& netlist,
                         const netlist::CellLibrary& library)
    : netlist_(&netlist) {
  const std::size_t n = netlist.num_cells();
  delays_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    delays_[i] = library.timing(netlist.cell(static_cast<int>(i)).type)
                     .nominal_delay_ps;
  }
  const std::vector<int> order = netlist.topological_order();
  rank_.resize(n);
  for (std::size_t r = 0; r < n; ++r) rank_[at(order[r])] = static_cast<int>(r);
  fanouts_ = netlist.fanouts();
}

void TimingGraph::sweep(int src_ff, ConeArrival& cone) const {
  const std::size_t n = netlist_->num_cells();
  if (cone.max_arrival.size() != n) cone = ConeArrival{};  // first use
  cone.max_arrival.resize(n, kNegInf);
  cone.min_arrival.resize(n, kNegInf);
  for (int id : cone.members) {
    cone.max_arrival[at(id)] = cone.min_arrival[at(id)] = kNegInf;
  }
  cone.members.assign(1, src_ff);
  cone.max_arrival[at(src_ff)] = cone.min_arrival[at(src_ff)] =
      delays_[at(src_ff)];

  // Collect the combinational fan-out cone, with the member list as the
  // work list. A finite max_arrival marks a cell as found; the fold below
  // overwrites it before any reader sees it.
  for (std::size_t k = 0; k < cone.members.size(); ++k) {
    for (int v : fanouts_[at(cone.members[k])]) {
      if (cone.max_arrival[at(v)] == kNegInf &&
          netlist::is_combinational(netlist_->cell(v).type)) {
        cone.max_arrival[at(v)] = 0.0;
        cone.members.push_back(v);
      }
    }
  }
  std::sort(cone.members.begin() + 1, cone.members.end(),
            [&](int a, int b) { return rank_[at(a)] < rank_[at(b)]; });

  // The full-netlist fold restricted to the cone: in topological order, so
  // every fanin is final when read, and over the fanins in netlist order,
  // so the doubles are those of a sweep over every cell.
  for (auto it = cone.members.begin() + 1; it != cone.members.end(); ++it) {
    double best_max = kNegInf;
    double best_min = kNegInf;
    for (int u : netlist_->cell(*it).fanins) {
      const double am = cone.max_arrival[at(u)];
      if (am == kNegInf) continue;
      best_max = std::max(best_max, am);
      const double an = cone.min_arrival[at(u)];
      best_min = (best_min == kNegInf) ? an : std::min(best_min, an);
    }
    cone.max_arrival[at(*it)] = best_max + delays_[at(*it)];
    cone.min_arrival[at(*it)] = best_min + delays_[at(*it)];
  }
}

std::vector<PairDelay> TimingGraph::all_pair_delays() const {
  std::vector<PairDelay> out;
  ConeArrival cone;
  for (int s : netlist_->flip_flops()) {
    sweep(s, cone);
    // A pair exists where a DFF's D pin is driven from inside the cone
    // (the source itself included); report them by capturing-FF id.
    const auto first = static_cast<std::ptrdiff_t>(out.size());
    for (int w : cone.members) {
      for (int t : fanouts_[at(w)]) {
        const netlist::Cell& tc = netlist_->cell(t);
        if (tc.type != netlist::CellType::kDff || tc.fanins[0] != w) continue;
        out.push_back(PairDelay{s, t, cone.max_arrival[at(w)],
                                cone.min_arrival[at(w)]});
      }
    }
    std::ranges::sort(out.begin() + first, out.end(), {}, &PairDelay::dst_ff);
  }
  return out;
}

std::vector<StructuralPath> TimingGraph::near_critical_paths(
    const ConeArrival& cone, int src_ff, int dst_ff, double slack_window,
    std::size_t max_paths) const {
  std::vector<StructuralPath> out;
  const netlist::Cell& dst = netlist_->cell(dst_ff);
  if (dst.type != netlist::CellType::kDff || dst.fanins.empty()) {
    throw netlist::NetlistError("near_critical_paths: dst is not a driven DFF");
  }
  const int w = dst.fanins[0];
  const double full = cone.max_arrival[static_cast<std::size_t>(w)];
  if (full == kNegInf) return out;
  const double threshold = full - slack_window;
  const double clkq = delays_[static_cast<std::size_t>(src_ff)];

  // Backward DFS from the D-pin driver. `trail` holds gates from the current
  // node up to w in reverse propagation order.
  std::vector<int> trail;
  const auto visit = [&](auto&& self, int v, double suffix) -> void {
    if (out.size() >= max_paths) return;
    trail.push_back(v);
    const netlist::Cell& cell = netlist_->cell(v);
    // Fanins sorted by descending max arrival so the critical path pops first.
    std::vector<int> preds = cell.fanins;
    std::sort(preds.begin(), preds.end(), [&](int a, int bb) {
      return cone.max_arrival[static_cast<std::size_t>(a)] >
             cone.max_arrival[static_cast<std::size_t>(bb)];
    });
    for (int u : preds) {
      if (out.size() >= max_paths) break;
      if (u == src_ff) {
        if (clkq + suffix >= threshold - 1e-12) {
          StructuralPath p;
          p.src_ff = src_ff;
          p.dst_ff = dst_ff;
          p.gates.assign(trail.rbegin(), trail.rend());
          p.nominal_delay = clkq + suffix;
          out.push_back(std::move(p));
        }
        continue;
      }
      const netlist::Cell& uc = netlist_->cell(u);
      if (!netlist::is_combinational(uc.type)) continue;
      const double au = cone.max_arrival[static_cast<std::size_t>(u)];
      if (au == kNegInf) continue;
      if (au + suffix < threshold - 1e-12) continue;  // prune
      self(self, u, suffix + delays_[static_cast<std::size_t>(u)]);
    }
    trail.pop_back();
  };
  visit(visit, w, delays_[static_cast<std::size_t>(w)]);

  std::sort(out.begin(), out.end(),
            [](const StructuralPath& a, const StructuralPath& b) {
              return a.nominal_delay > b.nominal_delay;
            });
  return out;
}

StructuralPath TimingGraph::min_path(const ConeArrival& cone, int src_ff,
                                     int dst_ff) const {
  const netlist::Cell& dst = netlist_->cell(dst_ff);
  if (dst.type != netlist::CellType::kDff || dst.fanins.empty()) {
    throw netlist::NetlistError("min_path: dst is not a driven DFF");
  }
  const int w = dst.fanins[0];
  if (cone.max_arrival[static_cast<std::size_t>(w)] == kNegInf) {
    throw netlist::NetlistError("min_path: pair not connected");
  }
  StructuralPath p;
  p.src_ff = src_ff;
  p.dst_ff = dst_ff;
  p.nominal_delay = cone.min_arrival[static_cast<std::size_t>(w)];
  // Greedy backtrack along min arrivals.
  int v = w;
  while (v != src_ff) {
    p.gates.push_back(v);
    const netlist::Cell& cell = netlist_->cell(v);
    int best = -1;
    double best_val = 0.0;
    for (int u : cell.fanins) {
      // The minimizing predecessor is the one whose min arrival defined
      // min_arrival[v]; src_ff itself is a valid (DFF) predecessor.
      if (u != src_ff &&
          !netlist::is_combinational(netlist_->cell(u).type)) {
        continue;
      }
      const double a = cone.min_arrival[static_cast<std::size_t>(u)];
      if (a == kNegInf) continue;
      if (best < 0 || a < best_val) {
        best = u;
        best_val = a;
      }
    }
    if (best < 0) {
      throw netlist::NetlistError("min_path: backtrack failed");
    }
    v = best;
  }
  std::reverse(p.gates.begin(), p.gates.end());
  return p;
}

}  // namespace effitest::timing
