#include "netlist/generator.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

namespace effitest::netlist {

namespace {

/// Shared trunk gates per hub cone: the trunk delay window, in average
/// gates.
constexpr double kTrunkMinGates = 3.0;
constexpr double kTrunkMaxGates = 7.0;
/// Average monitored edges per satellite flip-flop.
constexpr double kSatelliteReuse = 2.0;
/// Placement radius of a cluster (unit die).
constexpr double kClusterRadius = 0.060;

struct Builder {
  explicit Builder(const GeneratorSpec& spec)
      : spec(spec), rng(spec.seed), nl(spec.name),
        library(CellLibrary::standard()) {}

  const GeneratorSpec& spec;
  stats::Rng rng;
  Netlist nl;
  CellLibrary library;
  int gate_counter = 0;
  int pi_counter = 0;

  /// Pending D-pin drivers per flip-flop cell id.
  std::vector<std::pair<int, std::vector<int>>> ff_drivers;
  std::vector<int> driver_slot;  // ff id -> index into ff_drivers

  [[nodiscard]] std::string next_gate_name() {
    return "g" + std::to_string(gate_counter++);
  }
  [[nodiscard]] std::string next_pi_name() {
    return "pi" + std::to_string(pi_counter++);
  }

  [[nodiscard]] Point jitter(Point base, double radius) {
    const double a = rng.uniform(0.0, 2.0 * 3.14159265358979);
    const double r = radius * std::sqrt(rng.uniform());
    return clamp_point({base.x + r * std::cos(a), base.y + r * std::sin(a)});
  }

  [[nodiscard]] static Point clamp_point(Point p) {
    p.x = std::clamp(p.x, 0.001, 0.999);
    p.y = std::clamp(p.y, 0.001, 0.999);
    return p;
  }

  [[nodiscard]] static Point lerp(Point a, Point b, double t) {
    return {a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
  }

  [[nodiscard]] CellType random_gate_type() {
    const double u = rng.uniform();
    if (u < 0.30) return CellType::kNand;
    if (u < 0.50) return CellType::kNor;
    if (u < 0.70) return CellType::kNot;
    if (u < 0.80) return CellType::kAnd;
    if (u < 0.90) return CellType::kOr;
    return CellType::kBuf;
  }

  int add_ff(Point pos) {
    const int id = nl.add_cell("ff" + std::to_string(ff_drivers.size()),
                               CellType::kDff, {}, pos);
    driver_slot.resize(nl.num_cells(), -1);
    driver_slot[static_cast<std::size_t>(id)] =
        static_cast<int>(ff_drivers.size());
    ff_drivers.emplace_back(id, std::vector<int>{});
    return id;
  }

  void add_ff_driver(int ff, int signal) {
    ff_drivers[static_cast<std::size_t>(driver_slot[static_cast<std::size_t>(ff)])]
        .second.push_back(signal);
  }

  /// Chain of `len` gates from `from`; positions interpolate a->b.
  /// Returns the last gate id (== from when len == 0). Two-input gates take
  /// `side` as their second fanin.
  int make_chain(int from, std::size_t len, Point a, Point b, int side) {
    int prev = from;
    for (std::size_t i = 0; i < len; ++i) {
      const CellType t = random_gate_type();
      std::vector<int> fanins{prev};
      if (!is_unary(t)) fanins.push_back(side);
      const double frac = (static_cast<double>(i) + 1.0) / (static_cast<double>(len) + 1.0);
      const Point pos = jitter(lerp(a, b, frac), 0.012);
      prev = nl.add_cell(next_gate_name(), t, std::move(fanins), pos);
    }
    return prev;
  }

  [[nodiscard]] double delay_of(CellType t) const {
    return library.timing(t).nominal_delay_ps;
  }

  /// Chain built to a *nominal delay* target (ps): gates are appended while
  /// they bring the cumulative delay closer to the target. Near-critical
  /// paths in real designs all sit close to the clock period — this is what
  /// makes delay-range alignment by buffers effective, so the generator
  /// reproduces it. Returns {last gate id, accumulated delay}.
  std::pair<int, double> make_chain_to_delay(int from, double target_ps,
                                             std::size_t min_gates, Point a,
                                             Point b, int side) {
    int prev = from;
    double acc = 0.0;
    std::size_t count = 0;
    // Expected extent of the chain for position interpolation.
    const double avg_gate = 11.5;
    const double expected =
        std::max<double>(static_cast<double>(min_gates),
                         std::max(1.0, target_ps / avg_gate));
    while (count < min_gates || acc < target_ps) {
      const CellType t = random_gate_type();
      const double d = delay_of(t);
      // Stop when adding the gate overshoots more than stopping undershoots.
      if (count >= min_gates && acc + d - target_ps > target_ps - acc) break;
      std::vector<int> fanins{prev};
      if (!is_unary(t)) fanins.push_back(side);
      const double frac = std::min(
          1.0, (static_cast<double>(count) + 1.0) / (expected + 1.0));
      const Point pos = jitter(lerp(a, b, frac), 0.012);
      prev = nl.add_cell(next_gate_name(), t, std::move(fanins), pos);
      acc += d;
      ++count;
      if (count > 4096) break;  // defensive
    }
    return {prev, acc};
  }

  [[nodiscard]] static bool is_unary(CellType t) {
    return t == CellType::kBuf || t == CellType::kNot;
  }

  [[nodiscard]] std::size_t uniform_len(std::size_t lo, std::size_t hi) {
    if (hi <= lo) return lo;
    return static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  }
};

}  // namespace

GeneratedCircuit generate_circuit(const GeneratorSpec& spec) {
  if (spec.num_buffers == 0 || spec.num_buffers > spec.num_flip_flops) {
    throw NetlistError("generator: nb must be in [1, ns]");
  }
  if (spec.num_critical_paths == 0) {
    throw NetlistError("generator: np must be positive");
  }

  Builder b(spec);
  const std::size_t nb = spec.num_buffers;
  const std::size_t np = spec.num_critical_paths;
  // A hub's fan-in cone comes from the neighbouring cluster while its
  // fan-out cone stays local, so process variation creates the cross-stage
  // imbalance that post-silicon tuning exists to fix (Fig. 5 of the paper:
  // chains span clusters 1 and 2). Up to 2 clusters per buffer, capped by
  // the satellite capacity each cluster needs (>= np / (2 nb) sinks/sources
  // per cone) and by the number of distinct correlation-grid cells.
  std::size_t nc = spec.num_clusters;
  if (nc == 0) {
    const auto capacity_cap = static_cast<std::size_t>(
        2.0 * static_cast<double>(nb) *
        static_cast<double>(spec.num_flip_flops - nb) /
        std::max<double>(1.0, static_cast<double>(np)));
    nc = std::min({2 * nb, std::max<std::size_t>(capacity_cap, 1),
                   static_cast<std::size_t>(56)});
    nc = std::max<std::size_t>(nc, 2);
    nc = std::min(nc, std::max<std::size_t>(1, (spec.num_flip_flops - nb) / 2));
    nc = std::max<std::size_t>(nc, 1);
  }

  // --- Cluster centers on a jittered grid. A cluster's footprint is about
  //     the size of the finest correlation-grid cell (1/8 die), so its gates
  //     share most — but not all — spatial factors: intra-cluster delay
  //     correlation lands around 0.8-0.99 (several principal components per
  //     cluster) while inter-cluster correlation falls to the global floor.
  // The spatial correlation length is a process constant while die area
  // grows with gate count, so small circuits occupy a correspondingly small
  // region of the correlation grid: their clusters sit closer together and
  // retain higher inter-cluster correlation (20k gates ~ full reticle).
  const double occupancy = std::clamp(
      std::sqrt(static_cast<double>(spec.num_gates) / 20000.0), 0.35, 1.0);
  const auto grid = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(nc))));
  std::vector<Point> centers;
  for (std::size_t i = 0; i < nc; ++i) {
    const double gx = (static_cast<double>(i % grid) + 0.5) / static_cast<double>(grid);
    const double gy = (static_cast<double>(i / grid) + 0.5) / static_cast<double>(grid);
    const Point scaled{0.5 + (gx - 0.5) * occupancy,
                       0.5 + (gy - 0.5) * occupancy};
    centers.push_back(b.jitter(scaled, 0.02));
  }

  // --- Hub flip-flops (the ones that get tuning buffers). -------------------
  std::vector<int> hubs;
  std::vector<std::size_t> hub_cluster;
  for (std::size_t i = 0; i < nb; ++i) {
    const std::size_t c = i % nc;
    hubs.push_back(b.add_ff(b.jitter(centers[c], 0.01)));
    hub_cluster.push_back(c);
  }

  // --- Edge plan: hub-to-hub chains + per-hub in/out quotas. ----------------
  std::size_t n_hub_hub = std::min<std::size_t>(np / 20, nb > 1 ? nb : 0);
  const std::size_t n_cone_edges = np - n_hub_hub;
  std::vector<std::size_t> quota(nb, n_cone_edges / nb);
  for (std::size_t i = 0; i < n_cone_edges % nb; ++i) ++quota[i];

  // --- Satellite flip-flops, distributed over clusters by edge load. --------
  // Each cluster must host enough distinct satellites for every cone it
  // serves (a hub's out-edges need distinct sinks, in-edges distinct
  // sources); beyond that minimum, extra FF budget is spread by load up to
  // the requested reuse factor.
  const std::size_t ff_budget = spec.num_flip_flops - nb;
  std::vector<std::size_t> need(nc, 0);
  std::vector<std::size_t> cluster_edges(nc, 0);
  for (std::size_t i = 0; i < nb; ++i) {
    const std::size_t q_out = quota[i] / 2;
    const std::size_t q_in = quota[i] - q_out;
    // Out-cone satellites live in the hub's cluster, in-cone sources in the
    // neighbouring one.
    need[hub_cluster[i]] = std::max(need[hub_cluster[i]], q_out);
    need[(hub_cluster[i] + 1) % nc] =
        std::max(need[(hub_cluster[i] + 1) % nc], q_in);
    cluster_edges[hub_cluster[i]] += q_out;
    cluster_edges[(hub_cluster[i] + 1) % nc] += q_in;
  }
  std::size_t need_sum = 0;
  for (std::size_t c = 0; c < nc; ++c) {
    need[c] = std::max<std::size_t>(need[c], 2);
    need_sum += need[c];
  }
  if (need_sum > ff_budget) {
    throw NetlistError("generator: np too large for ns (satellite budget)");
  }
  const std::size_t by_reuse = static_cast<std::size_t>(
      std::ceil(static_cast<double>(np) / kSatelliteReuse));
  const std::size_t sat_total =
      std::min(ff_budget, std::max(need_sum, by_reuse));
  std::size_t spare = sat_total - need_sum;
  std::size_t edge_sum = 0;
  for (std::size_t e : cluster_edges) edge_sum += e;
  std::vector<std::vector<int>> satellites(nc);
  std::size_t sats_made = 0;
  for (std::size_t c = 0; c < nc; ++c) {
    std::size_t want = need[c];
    if (edge_sum > 0 && spare > 0) {
      const auto extra = static_cast<std::size_t>(
          std::llround(static_cast<double>(spare) *
                       static_cast<double>(cluster_edges[c]) /
                       static_cast<double>(edge_sum)));
      want += std::min(extra, spare);
    }
    for (std::size_t s = 0; s < want && sats_made < sat_total; ++s, ++sats_made) {
      satellites[c].push_back(b.add_ff(b.jitter(centers[c], kClusterRadius)));
    }
  }

  // --- Side nets: one PI-driven buffer per cluster (2nd fanins of gates). ---
  std::vector<int> side(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    const int pi = b.nl.add_cell(b.next_pi_name(), CellType::kInput, {},
                                 b.jitter(centers[c], 0.02));
    side[c] = b.nl.add_cell(b.next_gate_name(), CellType::kBuf, {pi},
                            b.jitter(centers[c], 0.02));
  }

  // --- Delay-target calibration. ---------------------------------------------
  // Gate budget: fixed structures (trunks, merges, capture gates, hold
  // shorts, background) are estimated, the rest funds the per-path leaves.
  // Leaf chains are then built to a *delay* target so every monitored path
  // lands near the same nominal delay — near-critical paths in real designs
  // cluster around the clock period, which is precisely what makes buffer
  // alignment (§3.3) effective.
  const double avg_gate = 11.5;  // mean nominal delay of the gate mix, ps
  const std::size_t bg_ffs = ff_budget - sats_made;
  const double overhead = 1.2 * static_cast<double>(np) +
                          12.0 * static_cast<double>(nb) +
                          2.0 * static_cast<double>(bg_ffs) +
                          static_cast<double>(spec.num_flip_flops) + 50.0;
  double avg_leaf = (static_cast<double>(spec.num_gates) - overhead) * 0.95 /
                    static_cast<double>(np);
  // Tight budget (dense designs like pci_bridge32): shorten the auxiliary
  // structures so the critical network still fits the published gate count.
  const bool tight = avg_leaf < 1.5;
  avg_leaf = std::clamp(avg_leaf, 1.0, 8.0);
  const double leaf_budget_ps = avg_leaf * avg_gate;
  const double trunk_lo_ps = kTrunkMinGates * avg_gate;
  const double trunk_hi_ps = kTrunkMaxGates * avg_gate;
  // Target combinational delay of every monitored path (trunk + leaf +
  // merge + capture stage).
  const double comb_target =
      0.5 * (trunk_lo_ps + trunk_hi_ps) + leaf_budget_ps + 2.0 * avg_gate;
  // Per-path jitter keeps paths near-critical rather than identical.
  const double target_jitter = 4.0;

  GeneratedCircuit out;
  out.spec = spec;
  std::set<std::pair<int, int>> edge_set;

  auto record_edge = [&](int src, int dst) {
    out.critical_edges.emplace_back(src, dst);
    edge_set.insert({src, dst});
  };

  // --- Hub-to-hub chains (series paths across/within clusters). -------------
  for (std::size_t i = 0; i < n_hub_hub; ++i) {
    const int src = hubs[i % nb];
    const int dst = hubs[(i + 1) % nb];
    if (src == dst || edge_set.contains({src, dst})) continue;
    const Point pa = b.nl.cell(src).position;
    const Point pb = b.nl.cell(dst).position;
    const double target = comb_target - avg_gate +
                          b.rng.uniform(-target_jitter, target_jitter);
    const int end = b.make_chain_to_delay(src, std::max(target, avg_gate), 2,
                                          pa, pb, side[hub_cluster[i % nb]])
                        .first;
    b.add_ff_driver(dst, end);
    record_edge(src, dst);
  }
  n_hub_hub = out.critical_edges.size();

  // --- Hub cones: shared out-trunk with per-edge leaves; per-edge in-leaves
  //     merging into a shared in-trunk. ---------------------------------------
  for (std::size_t h = 0; h < nb; ++h) {
    const std::size_t c = hub_cluster[h];
    const int hub = hubs[h];
    const Point hub_pos = b.nl.cell(hub).position;
    // Fan-out stays in the hub's cluster; fan-in launches from the
    // neighbouring cluster (cross-cluster pipeline stages, Fig. 5).
    const auto& pool_out = satellites[c];
    const auto& pool_in = satellites[(c + 1) % nc];
    if (pool_out.empty() || pool_in.empty()) {
      throw NetlistError("generator: cluster without satellites");
    }

    std::size_t q_out = quota[h] / 2;
    std::size_t q_in = quota[h] - q_out;
    // Each out (in) edge needs a distinct sink (source) satellite.
    q_out = std::min(q_out, pool_out.size());
    q_in = std::min(q_in, pool_in.size());
    // Re-balance what was clipped.
    std::size_t lost = quota[h] - q_out - q_in;
    while (lost > 0 && q_out < pool_out.size()) { ++q_out; --lost; }
    while (lost > 0 && q_in < pool_in.size()) { ++q_in; --lost; }
    if (lost > 0) {
      throw NetlistError("generator: np too large for ns (cluster overflow)");
    }

    // Shuffled satellite orders for this hub.
    const auto shuffled = [&](std::vector<int> v) {
      for (std::size_t i = v.size(); i > 1; --i) {
        std::swap(v[i - 1],
                  v[static_cast<std::size_t>(
                      b.rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
      }
      return v;
    };
    const std::vector<int> order_out = shuffled(pool_out);
    const std::vector<int> order_in = shuffled(pool_in);

    // Out cone: hub -> trunk -> leaves -> satellites. Leaf delay compensates
    // the cone's trunk so all paths land near comb_target.
    if (q_out > 0) {
      const double trunk_target = b.rng.uniform(trunk_lo_ps, trunk_hi_ps);
      const auto [trunk_end, trunk_delay] = b.make_chain_to_delay(
          hub, trunk_target, 1, hub_pos, hub_pos, side[c]);
      std::size_t made = 0;
      for (std::size_t i = 0; i < order_out.size() && made < q_out; ++i) {
        const int dst = order_out[i];
        if (dst == hub || edge_set.contains({hub, dst})) continue;
        const double leaf_target =
            comb_target - trunk_delay - avg_gate +
            b.rng.uniform(-target_jitter, target_jitter);
        const int leaf =
            b.make_chain_to_delay(trunk_end, std::max(leaf_target, 6.0), 1,
                                  hub_pos, b.nl.cell(dst).position, side[c])
                .first;
        b.add_ff_driver(dst, leaf);
        record_edge(hub, dst);
        ++made;
      }
    }

    // In cone: satellites -> leaves -> merge -> trunk -> hub.
    if (q_in > 0) {
      const double trunk_target = b.rng.uniform(trunk_lo_ps, trunk_hi_ps);
      std::vector<int> leaf_ends;
      std::size_t made = 0;
      for (std::size_t i = 0; i < order_in.size() && made < q_in; ++i) {
        const int src = order_in[i];
        if (src == hub || edge_set.contains({src, hub})) continue;
        const double leaf_target =
            comb_target - trunk_target - 2.0 * avg_gate +
            b.rng.uniform(-target_jitter, target_jitter);
        // Leaf gates stay inside the source cluster (gates cluster at the
        // launching register; only routing crosses the die), preserving the
        // high intra-cone delay correlation the prediction step relies on.
        const int leaf =
            b.make_chain_to_delay(src, std::max(leaf_target, 6.0), 1,
                                  b.nl.cell(src).position,
                                  b.nl.cell(src).position, side[c])
                .first;
        leaf_ends.push_back(leaf);
        record_edge(src, hub);
        ++made;
      }
      if (!leaf_ends.empty()) {
        // Merge and trunk live in the *source* cluster: the fan-in cone is
        // physically one cluster, the fan-out cone another, and the hub sits
        // between them — the cross-stage imbalance a tuning buffer fixes.
        const Point in_center = centers[(c + 1) % nc];
        int trunk_start = leaf_ends[0];
        if (leaf_ends.size() > 1) {
          trunk_start = b.nl.add_cell(b.next_gate_name(), CellType::kNand,
                                      leaf_ends, b.jitter(in_center, 0.02));
        }
        const int trunk_end =
            b.make_chain_to_delay(trunk_start, trunk_target, 1, in_center,
                                  in_center, side[c])
                .first;
        b.add_ff_driver(hub, trunk_end);
      }
    }
  }

  if (out.critical_edges.size() != np) {
    // Top up with extra hub-satellite edges across clusters if rounding or
    // dedup dropped a few.
    for (std::size_t h = 0; h < nb && out.critical_edges.size() < np; ++h) {
      const std::size_t c = hub_cluster[h];
      for (int dst : satellites[(c + 1) % nc]) {
        if (out.critical_edges.size() >= np) break;
        if (edge_set.contains({hubs[h], dst})) continue;
        const double target = comb_target - avg_gate +
                              b.rng.uniform(-target_jitter, target_jitter);
        const int leaf =
            b.make_chain_to_delay(hubs[h], std::max(target, avg_gate), 2,
                                  b.nl.cell(hubs[h]).position,
                                  b.nl.cell(dst).position, side[c])
                .first;
        b.add_ff_driver(dst, leaf);
        record_edge(hubs[h], dst);
      }
    }
  }
  if (out.critical_edges.size() != np) {
    throw NetlistError("generator: could not realize requested np");
  }

  // --- Logic-masking mutual exclusions (§3.2): a small fraction of
  //     same-cluster edge pairs cannot be sensitized by one vector set
  //     (they share cluster side nets); the batch builder must separate
  //     them. Pairs that already conflict structurally are skipped. --------
  {
    const auto n_excl = static_cast<std::size_t>(
        spec.exclusive_fraction * static_cast<double>(np));
    std::size_t attempts = 0;
    while (out.exclusive_edge_pairs.size() < n_excl && attempts < 20 * n_excl + 20) {
      ++attempts;
      const auto i = static_cast<std::size_t>(
          b.rng.uniform_int(0, static_cast<std::int64_t>(np) - 1));
      const auto j = static_cast<std::size_t>(
          b.rng.uniform_int(0, static_cast<std::int64_t>(np) - 1));
      if (i == j) continue;
      const auto& [si, di] = out.critical_edges[i];
      const auto& [sj, dj] = out.critical_edges[j];
      if (si == sj || di == dj) continue;  // already batch-incompatible
      out.exclusive_edge_pairs.emplace_back(std::min(i, j), std::max(i, j));
    }
  }

  // --- Hold-risk short parallel paths on a fraction of critical edges. ------
  for (const auto& [src, dst] : out.critical_edges) {
    if (b.rng.uniform() < spec.hold_edge_fraction) {
      const int end = b.make_chain(src, tight ? 1 : b.uniform_len(1, 2),
                                   b.nl.cell(src).position,
                                   b.nl.cell(dst).position,
                                   side[hub_cluster[0]]);
      b.add_ff_driver(dst, end);
      out.hold_edges.emplace_back(src, dst);
    }
  }

  // --- Background flip-flops in a ring of short chains. ---------------------
  std::vector<int> bg;
  for (std::size_t i = 0; i < bg_ffs; ++i) {
    bg.push_back(b.add_ff(b.jitter({b.rng.uniform(), b.rng.uniform()}, 0.0)));
  }
  for (std::size_t i = 0; i < bg.size(); ++i) {
    const int src = bg[i];
    const int dst = bg[(i + 1) % bg.size()];
    if (src == dst) break;
    const int end = b.make_chain(src, tight ? 1 : 2, b.nl.cell(src).position,
                                 b.nl.cell(dst).position, side[i % nc]);
    b.add_ff_driver(dst, end);
  }

  // --- Resolve flip-flop D pins. Every FF gets a uniform capture stage
  //     (BUF for one driver, AND merge for several) so converging paths and
  //     plain chains see the same terminal delay. ------------------------------
  for (auto& [ff, drivers] : b.ff_drivers) {
    if (drivers.empty()) {
      b.nl.set_fanins(ff, {side[0]});
      continue;
    }
    const CellType capture_type =
        drivers.size() == 1 ? CellType::kBuf : CellType::kAnd;
    const int capture = b.nl.add_cell(b.next_gate_name(), capture_type,
                                      drivers, b.nl.cell(ff).position);
    b.nl.set_fanins(ff, {capture});
  }

  // --- Pure combinational filler up to the ng target. ------------------------
  if (b.nl.num_combinational_gates() < spec.num_gates) {
    const int filler_pi =
        b.nl.add_cell(b.next_pi_name(), CellType::kInput, {}, Point{0.5, 0.5});
    while (b.nl.num_combinational_gates() < spec.num_gates) {
      const std::size_t remaining =
          spec.num_gates - b.nl.num_combinational_gates();
      const Point at{b.rng.uniform(), b.rng.uniform()};
      const int end = b.make_chain(filler_pi, std::min<std::size_t>(remaining, 20),
                                   at, b.jitter(at, 0.05), side[0]);
      b.nl.mark_primary_output(end);
    }
  }

  out.buffered_ffs = hubs;
  b.nl.validate();
  out.netlist = std::move(b.nl);
  return out;
}

std::vector<GeneratorSpec> paper_benchmark_specs() {
  // Columns ns / ng / nb / np of Table 1 in the paper.
  struct Row {
    const char* name;
    std::size_t ns, ng, nb, np;
  };
  static constexpr Row kRows[] = {
      {"s9234", 211, 5597, 2, 80},
      {"s13207", 638, 7951, 5, 485},
      {"s15850", 534, 9772, 5, 397},
      {"s38584", 1426, 19253, 7, 370},
      {"mem_ctrl", 1065, 10327, 10, 3016},
      {"usb_funct", 1746, 14381, 17, 482},
      {"ac97_ctrl", 2199, 9208, 21, 780},
      {"pci_bridge32", 3321, 12494, 32, 3472},
  };
  std::vector<GeneratorSpec> specs;
  std::uint64_t seed = 20160605;  // DAC 2016 started June 5th
  for (const Row& r : kRows) {
    GeneratorSpec s;
    s.name = r.name;
    s.num_flip_flops = r.ns;
    s.num_gates = r.ng;
    s.num_buffers = r.nb;
    s.num_critical_paths = r.np;
    s.seed = seed++;
    specs.push_back(std::move(s));
  }
  return specs;
}

std::vector<GeneratorSpec> extended_benchmark_specs() {
  // The largest ISCAS89 circuits, absent from the paper's Table 1 but
  // standard in the SSTA literature; ns/ng are the published register and
  // gate counts, nb/np follow the paper's buffers-per-register and
  // monitored-path densities. Seeds continue the Table-1 sequence
  // (20160605 + row), so the family is stable as rows are appended.
  struct Row {
    const char* name;
    std::size_t ns, ng, nb, np;
  };
  static constexpr Row kRows[] = {
      {"s35932", 1728, 16065, 9, 432},
      {"s38417", 1636, 22179, 14, 587},
  };
  std::vector<GeneratorSpec> specs;
  std::uint64_t seed = 20160605 + 8;  // after the 8 Table-1 rows
  for (const Row& r : kRows) {
    GeneratorSpec s;
    s.name = r.name;
    s.num_flip_flops = r.ns;
    s.num_gates = r.ng;
    s.num_buffers = r.nb;
    s.num_critical_paths = r.np;
    s.seed = seed++;
    specs.push_back(std::move(s));
  }
  return specs;
}

GeneratorSpec paper_benchmark_spec(const std::string& name) {
  for (GeneratorSpec& s : paper_benchmark_specs()) {
    if (s.name == name) return s;
  }
  for (GeneratorSpec& s : extended_benchmark_specs()) {
    if (s.name == name) return s;
  }
  throw NetlistError("unknown paper benchmark: " + name);
}

}  // namespace effitest::netlist
