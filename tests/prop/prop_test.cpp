// Randomized differential and metamorphic properties of the two users of
// the difference-constraint kernel, over seeded tiny problems (nb <= 4,
// <= 8 steps, np <= 12, random delay ranges, hold bounds and T_d):
//   - buffer configuration (eqs. 15-18 + 21) against exhaustive enumeration
//     of every step assignment: same feasibility, same optimal xi;
//   - xi never increases as T_d grows;
//   - the per-die minimal feasible period against an LP oracle, and between
//     the static lower bound and the untuned required period, also on wider
//     problems (nb <= 14), where a cycle-ratio iteration needs several raises;
//   - the coordinate-descent alignment solver against a verbatim copy of its
//     allocating predecessor (the equivalence-test idiom: old and new run
//     side by side on the same inputs), bit for bit, through one reused
//     workspace, on seeded random instances and on the instances the
//     tester itself solves on s9234 and s38584;
//   - the cone-limited STA sweep, and the FF-pair list built from it,
//     against verbatim copies of the full-netlist sweep and the
//     every-FF scan they replaced, bit for bit, on seeded random
//     netlists, through one reused arrival buffer.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analytic/engine.hpp"
#include "core/alignment.hpp"
#include "core/configurator.hpp"
#include "core/problem.hpp"
#include "core/test_engine.hpp"
#include "core/tuner_service.hpp"
#include "lp/solver.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "parallel/deterministic_for.hpp"
#include "scenario/circuit_catalog.hpp"
#include "stats/rng.hpp"
#include "timing/graph.hpp"
#include "timing/model.hpp"

namespace effitest {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kCases = 400;

/// Size ranges of the generated problems.
struct Shape {
  std::size_t flip_flops;
  std::size_t gates;
  int min_buffers, max_buffers;
  int min_pairs, max_pairs;
};
constexpr Shape kTinyShape{16, 200, 1, 4, 4, 12};
constexpr Shape kWideShape{60, 700, 8, 14, 30, 60};

/// A generated circuit with its model and a coarse-grid problem.
struct Tiny {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary library = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  core::Problem problem;

  Tiny(const netlist::GeneratorSpec& spec, int steps)
      : circuit(netlist::generate_circuit(spec)),
        model(circuit.netlist, library, circuit.buffered_ffs),
        problem(model, 0.0, steps) {}
};

/// Draws one problem of `shape` per case index.
Tiny make_tiny(stats::Rng& rng, int c, const Shape& shape = kTinyShape) {
  netlist::GeneratorSpec s;
  s.num_flip_flops = shape.flip_flops;
  s.num_gates = shape.gates;
  s.num_buffers = static_cast<std::size_t>(
      rng.uniform_int(shape.min_buffers, shape.max_buffers));
  s.num_critical_paths = static_cast<std::size_t>(
      rng.uniform_int(shape.min_pairs, shape.max_pairs));
  s.seed = static_cast<std::uint64_t>(1000 + c);
  return Tiny(s, static_cast<int>(rng.uniform_int(2, 8)));
}

/// Optimal xi of eqs. 15-18 (+21) by enumerating every step assignment;
/// +infinity when none is feasible.
double exhaustive_xi(const core::Problem& problem, double td,
                     const std::vector<double>& lower,
                     const std::vector<double>& upper,
                     const std::vector<core::HoldConstraintX>& hold) {
  const std::size_t nb = problem.num_buffers();
  const auto x = [&](const std::vector<int>& s, int b) {
    return b < 0 ? 0.0
                 : problem.buffers()[static_cast<std::size_t>(b)].value(
                       s[static_cast<std::size_t>(b)]);
  };
  std::vector<int> s(nb, 0);
  double best = kInf;
  for (;;) {
    bool feasible = true;
    double xi = 0.0;
    for (std::size_t p = 0; p < lower.size(); ++p) {
      const double skew = problem.pair_skew(p, s);
      feasible = feasible && skew <= td - lower[p] + 1e-9;
      xi = std::max(xi, upper[p] + skew - td);
    }
    for (const core::HoldConstraintX& h : hold) {
      feasible = feasible && x(s, h.src_buf) - x(s, h.dst_buf) >= h.lambda - 1e-9;
    }
    if (feasible) best = std::min(best, xi);
    std::size_t b = 0;
    while (b < nb && ++s[b] == problem.buffers()[b].steps) s[b++] = 0;
    if (b == nb) return best;
  }
}

/// Minimal T with x_src - x_dst <= T - D for every pair, x in its box and
/// T at least every static delay, as a continuous LP.
double lp_min_period(const core::Problem& problem, const timing::Chip& chip) {
  lp::Model m;
  double statics = 0.0;
  for (const double d : chip.static_delay) statics = std::max(statics, d);
  const int t = m.add_continuous(statics, 1e6, 1.0, "T");
  std::vector<int> x;
  for (const core::TunableBuffer& b : problem.buffers()) {
    x.push_back(m.add_continuous(b.r, b.r + b.tau));
  }
  for (std::size_t p = 0; p < chip.max_delay.size(); ++p) {
    const int src = problem.src_buffer(p);
    const int dst = problem.dst_buffer(p);
    std::vector<lp::Term> terms{{t, -1.0}};
    if (src != dst) {
      if (src >= 0) terms.push_back({x[static_cast<std::size_t>(src)], 1.0});
      if (dst >= 0) terms.push_back({x[static_cast<std::size_t>(dst)], -1.0});
    }
    m.add_constraint(std::move(terms), lp::Sense::kLessEqual,
                     -chip.max_delay[p]);
  }
  const lp::Solution sol = lp::solve(m);
  EXPECT_EQ(sol.status, lp::SolveStatus::kOptimal) << lp::to_string(sol.status);
  return sol.values[static_cast<std::size_t>(t)];
}

TEST(PropConfigurator, MatchesExhaustiveEnumerationAndXiFallsWithTd) {
  stats::Rng rng(2016);
  int feasible = 0;
  int infeasible = 0;
  for (int c = 0; c < kCases; ++c) {
    const Tiny tiny = make_tiny(rng, c);
    const core::Problem& problem = tiny.problem;
    const auto means = tiny.model.max_means();
    const auto sigmas = tiny.model.max_sigmas();
    const double tau = problem.buffers()[0].tau;

    std::vector<double> lower(means.size());
    std::vector<double> upper(means.size());
    const bool point = rng.uniform() < 0.25;  // l = u, the ideal case
    for (std::size_t p = 0; p < means.size(); ++p) {
      const double center = rng.normal(means[p], sigmas[p]);
      lower[p] = point ? center : center - rng.uniform(0.0, 2.0 * sigmas[p]);
      upper[p] = point ? center : center + rng.uniform(0.0, 2.0 * sigmas[p]);
    }
    std::vector<core::HoldConstraintX> hold;
    const int nb = static_cast<int>(problem.num_buffers());
    for (int h = static_cast<int>(rng.uniform_int(0, 3)); h > 0; --h) {
      hold.push_back({static_cast<int>(rng.uniform_int(-1, nb - 1)),
                      static_cast<int>(rng.uniform_int(-1, nb - 1)),
                      rng.uniform(-tau, 0.5 * tau)});
    }

    const double top = *std::max_element(upper.begin(), upper.end());
    double previous_xi = kInf;
    for (double td = top - 0.75 * tau; td <= top + 0.25 * tau; td += 0.25 * tau) {
      SCOPED_TRACE("case " + std::to_string(c) + " td " + std::to_string(td));
      const core::ConfigResult r =
          core::configure_buffers(problem, td, lower, upper, hold);
      const double best = exhaustive_xi(problem, td, lower, upper, hold);
      ASSERT_EQ(r.feasible, best < kInf);
      if (!r.feasible) {
        ++infeasible;
        EXPECT_EQ(previous_xi, kInf) << "feasibility lost as T_d grew";
        continue;
      }
      ++feasible;
      EXPECT_NEAR(r.xi, best, 1e-6);
      EXPECT_LE(r.xi, previous_xi + 1e-9) << "xi rose as T_d grew";
      previous_xi = r.xi;
      // The returned assignment itself attains xi.
      double attained = 0.0;
      for (std::size_t p = 0; p < lower.size(); ++p) {
        attained = std::max(attained,
                            upper[p] + problem.pair_skew(p, r.steps) - td);
      }
      EXPECT_NEAR(attained, r.xi, 1e-6);
    }
  }
  EXPECT_GT(feasible, kCases / 2);
  EXPECT_GT(infeasible, 0);
}

/// min_feasible_period against the LP oracle and its two bounds over
/// `cases` problems of `shape`, `dies` sampled dies each.
void check_min_feasible_period(const Shape& shape, int cases, int dies) {
  stats::Rng rng(7);
  for (int c = 0; c < cases; ++c) {
    const Tiny tiny = make_tiny(rng, c, shape);
    timing::SampleWorkspace ws;
    timing::LaneWorkspace lane_ws;
    for (int die = 0; die < dies; ++die) {
      SCOPED_TRACE("case " + std::to_string(c) + " die " + std::to_string(die));
      std::array<stats::Rng, 1> lane{rng};
      const timing::Chip chip = tiny.model.sample_chip(rng, ws);
      const double untuned =
          tiny.model.sample_required_periods(lane, lane_ws)[0];
      const double period = analytic::min_feasible_period(tiny.problem, chip);
      const double oracle = lp_min_period(tiny.problem, chip);
      EXPECT_NEAR(period, oracle, 1e-9 * oracle);

      double statics = 0.0;
      for (const double d : chip.static_delay) statics = std::max(statics, d);
      EXPECT_GE(period, statics);
      EXPECT_LE(period, untuned * (1.0 + 1e-12));
    }
  }
}

TEST(PropMinFeasiblePeriod, MatchesLpOracleWithinBounds) {
  check_min_feasible_period(kTinyShape, kCases, 3);
}

TEST(PropMinFeasiblePeriod, MatchesLpOracleOnWiderProblems) {
  // Case 16 die 8 needs a raise past a cycle whose ratio rounds to T.
  check_min_feasible_period(kWideShape, 80, 10);
}

// The coordinate-descent solver as it stood before it moved onto a reused
// AlignmentWorkspace, copied verbatim: the reference the new solver must
// reproduce bit for bit.
namespace reference_cd {
using namespace core;

/// Buffer value for a (possibly absent) buffer index under `steps`.
double x_of(const Problem& problem, std::span<const int> steps, int buf) {
  if (buf < 0) return 0.0;
  return problem.buffers()[static_cast<std::size_t>(buf)].value(
      steps[static_cast<std::size_t>(buf)]);
}

bool hold_ok(const AlignmentInstance& inst, std::span<const int> steps) {
  for (const HoldConstraintX& h : inst.hold) {
    const double skew = x_of(*inst.problem, steps, h.src_buf) -
                        x_of(*inst.problem, steps, h.dst_buf);
    if (skew < h.lambda - 1e-9) return false;
  }
  return true;
}

/// Sorted static point set with prefix sums: evaluates sum(w |T - m|) and
/// proposes weighted-median candidates in O(log n).
class StaticPoints {
 public:
  void build(std::vector<std::pair<double, double>> pts) {
    std::sort(pts.begin(), pts.end());
    m_.resize(pts.size());
    prefix_w_.resize(pts.size() + 1);
    prefix_wm_.resize(pts.size() + 1);
    prefix_w_[0] = 0.0;
    prefix_wm_[0] = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      m_[i] = pts[i].first;
      prefix_w_[i + 1] = prefix_w_[i] + pts[i].second;
      prefix_wm_[i + 1] = prefix_wm_[i] + pts[i].second * pts[i].first;
    }
  }

  [[nodiscard]] double total_weight() const {
    return prefix_w_.empty() ? 0.0 : prefix_w_.back();
  }

  /// sum over static points of w * |T - m|.
  [[nodiscard]] double objective(double t) const {
    const std::size_t k = static_cast<std::size_t>(
        std::upper_bound(m_.begin(), m_.end(), t) - m_.begin());
    const double left = t * prefix_w_[k] - prefix_wm_[k];
    const double right = (prefix_wm_.back() - prefix_wm_[k]) -
                         t * (prefix_w_.back() - prefix_w_[k]);
    return left + right;
  }

  /// Static point whose cumulative weight first reaches `target`.
  [[nodiscard]] double point_at_mass(double target) const {
    if (m_.empty()) return 0.0;
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(prefix_w_.begin() + 1, prefix_w_.end(), target) -
        (prefix_w_.begin() + 1));
    return m_[std::min(k, m_.size() - 1)];
  }

  [[nodiscard]] bool empty() const { return m_.empty(); }

 private:
  std::vector<double> m_;
  std::vector<double> prefix_w_;
  std::vector<double> prefix_wm_;
};

AlignmentResult solve_coordinate_descent(const AlignmentInstance& inst) {
  const Problem& problem = *inst.problem;
  AlignmentResult out;
  out.steps = inst.current_steps;
  out.feasible = hold_ok(inst, out.steps);

  // Buffers that may move: those referenced by an entry.
  std::set<int> involved_set;
  if (inst.allow_buffer_moves) {
    for (const AlignmentEntry& e : inst.entries) {
      if (e.src_buf >= 0) involved_set.insert(e.src_buf);
      if (e.dst_buf >= 0) involved_set.insert(e.dst_buf);
    }
  }
  const std::vector<int> involved(involved_set.begin(), involved_set.end());

  // Entries / hold bounds touching each movable buffer, precomputed once.
  // In a legal batch a buffer touches at most two entries (its FF appears
  // once as source and once as sink), which is what makes the prefix-sum
  // scan below cheap. Moving buffer b cannot change the state of hold
  // bounds that do not reference b, so only those are rechecked per step.
  std::vector<std::vector<std::size_t>> dyn_of(involved.size());
  std::vector<std::vector<std::size_t>> hold_of(involved.size());
  for (std::size_t v = 0; v < involved.size(); ++v) {
    const int b = involved[v];
    for (std::size_t i = 0; i < inst.entries.size(); ++i) {
      if (inst.entries[i].src_buf == b || inst.entries[i].dst_buf == b) {
        dyn_of[v].push_back(i);
      }
    }
    for (std::size_t h = 0; h < inst.hold.size(); ++h) {
      if (inst.hold[h].src_buf == b || inst.hold[h].dst_buf == b) {
        hold_of[v].push_back(h);
      }
    }
  }
  const auto hold_ok_for = [&](std::span<const std::size_t> idx,
                               std::span<const int> steps) {
    for (std::size_t h : idx) {
      const HoldConstraintX& hc = inst.hold[h];
      const double skew = x_of(problem, steps, hc.src_buf) -
                          x_of(problem, steps, hc.dst_buf);
      if (skew < hc.lambda - 1e-9) return false;
    }
    return true;
  };

  const auto shifted = [&](const AlignmentEntry& e, std::span<const int> steps) {
    return e.center + x_of(problem, steps, e.src_buf) -
           x_of(problem, steps, e.dst_buf);
  };

  // Best (T, objective) for the point multiset (static via prefix sums,
  // dynamic explicit). The L1 optimum sits on one of the points; candidates
  // are the dynamic points plus the static mass-crossings for every possible
  // split of the dynamic weight.
  const auto best_period = [&](const StaticPoints& stat,
                               std::span<const std::pair<double, double>> dyn) {
    double dyn_w = 0.0;
    for (const auto& [m, w] : dyn) dyn_w += w;
    const double half = 0.5 * (stat.total_weight() + dyn_w);
    std::vector<double> candidates;
    for (const auto& [m, w] : dyn) candidates.push_back(m);
    if (!stat.empty()) {
      double left_dyn = 0.0;
      candidates.push_back(stat.point_at_mass(half));
      for (const auto& [m, w] : dyn) {
        left_dyn += w;
        candidates.push_back(stat.point_at_mass(half - left_dyn));
      }
    }
    double best_t = candidates.empty() ? 0.0 : candidates.front();
    double best_obj = std::numeric_limits<double>::infinity();
    for (double t : candidates) {
      double obj = stat.objective(t);
      for (const auto& [m, w] : dyn) obj += w * std::abs(t - m);
      if (obj < best_obj) {
        best_obj = obj;
        best_t = t;
      }
    }
    return std::make_pair(best_t, best_obj);
  };

  {
    // Initial (T, objective) with everything static.
    StaticPoints all;
    std::vector<std::pair<double, double>> pts;
    pts.reserve(inst.entries.size());
    for (const AlignmentEntry& e : inst.entries) {
      pts.emplace_back(shifted(e, out.steps), e.weight);
    }
    all.build(std::move(pts));
    const auto [t, obj] = best_period(all, {});
    out.period = t;
    out.objective = obj;
  }
  double best = out.objective;

  for (int round = 0; round < 32; ++round) {
    bool changed = false;
    for (std::size_t v = 0; v < involved.size(); ++v) {
      const int b = involved[v];
      const auto bi = static_cast<std::size_t>(b);
      const TunableBuffer& buf = problem.buffers()[bi];
      const std::vector<std::size_t>& dyn_idx = dyn_of[v];

      // Static part: every entry not touching b, at the current steps.
      StaticPoints stat;
      {
        std::vector<std::pair<double, double>> pts;
        pts.reserve(inst.entries.size());
        for (std::size_t i = 0; i < inst.entries.size(); ++i) {
          if (std::find(dyn_idx.begin(), dyn_idx.end(), i) != dyn_idx.end()) {
            continue;
          }
          pts.emplace_back(shifted(inst.entries[i], out.steps),
                           inst.entries[i].weight);
        }
        stat.build(std::move(pts));
      }

      const int saved = out.steps[bi];
      int best_step = saved;
      double best_t = out.period;
      std::vector<std::pair<double, double>> dyn(dyn_idx.size());
      for (int k = 0; k < buf.steps; ++k) {
        if (k == saved) continue;
        out.steps[bi] = k;
        if (!hold_ok_for(hold_of[v], out.steps)) continue;
        for (std::size_t d = 0; d < dyn_idx.size(); ++d) {
          dyn[d] = {shifted(inst.entries[dyn_idx[d]], out.steps),
                    inst.entries[dyn_idx[d]].weight};
        }
        const auto [t, obj] = best_period(stat, dyn);
        if (obj < best - 1e-12) {
          best = obj;
          best_step = k;
          best_t = t;
        }
      }
      out.steps[bi] = best_step;
      if (best_step != saved) {
        out.period = best_t;
        changed = true;
      }
    }
    if (!changed) break;
  }
  out.objective = best;
  out.feasible = hold_ok(inst, out.steps);
  return out;
}

}  // namespace reference_cd

/// Bitwise double equality (distinguishes -0.0 and NaN payloads).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(PropAlignment, ReusedWorkspaceMatchesReferenceBitwise) {
  // Problems with nb = 1..8 buffers, each at several step counts in 2..20.
  std::vector<std::unique_ptr<Tiny>> problems;
  for (std::size_t nb = 1; nb <= 8; ++nb) {
    for (const int steps : {2, 3, 5, 8, 13, 20}) {
      netlist::GeneratorSpec s;
      s.num_flip_flops = 16;
      s.num_gates = 200;
      s.num_buffers = nb;
      s.num_critical_paths = 8;
      s.seed = 3000 + nb;
      problems.push_back(std::make_unique<Tiny>(s, steps));
    }
  }

  stats::Rng rng(1705);
  constexpr std::size_t kInstances = 2400;
  std::vector<core::AlignmentInstance> instances(kInstances);
  for (core::AlignmentInstance& inst : instances) {
    const core::Problem& problem =
        problems[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(problems.size()) - 1))]
            ->problem;
    const int nb = static_cast<int>(problem.num_buffers());
    const double tau = problem.buffers()[0].tau;
    inst.problem = &problem;
    inst.allow_buffer_moves = rng.uniform() >= 0.15;
    for (const core::TunableBuffer& b : problem.buffers()) {
      inst.current_steps.push_back(
          static_cast<int>(rng.uniform_int(0, b.steps - 1)));
    }
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 14));
    std::vector<double> centers;
    for (std::size_t i = 0; i < n; ++i) {
      // About one center in four repeats an earlier one: ties in the sorts.
      const bool repeat = i > 0 && rng.uniform() < 0.25;
      centers.push_back(
          repeat ? centers[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(i) - 1))]
                 : rng.uniform(180.0, 220.0));
    }
    const bool middle_out = rng.uniform() < 0.5;
    std::vector<std::size_t> order;
    std::vector<double> weights;
    core::middle_out_weights(centers, 1000.0, 1.0, order, weights);
    for (std::size_t i = 0; i < n; ++i) {
      inst.entries.push_back(core::AlignmentEntry{
          centers[i], middle_out ? weights[i] : rng.uniform(0.5, 5.0),
          static_cast<int>(rng.uniform_int(-1, nb - 1)),
          static_cast<int>(rng.uniform_int(-1, nb - 1))});
    }
    for (int h = static_cast<int>(rng.uniform_int(0, 4)); h > 0; --h) {
      core::HoldConstraintX hold{static_cast<int>(rng.uniform_int(-1, nb - 1)),
                                 static_cast<int>(rng.uniform_int(-1, nb - 1)),
                                 0.0};
      if (rng.uniform() < 0.3) {
        // A skew some step pair attains exactly, nudged across the 1e-9
        // tolerance of the hold check.
        const auto x = [&](int b) {
          if (b < 0) return 0.0;
          const core::TunableBuffer& buf =
              problem.buffers()[static_cast<std::size_t>(b)];
          return buf.value(static_cast<int>(rng.uniform_int(0, buf.steps - 1)));
        };
        hold.lambda = x(hold.src_buf) - x(hold.dst_buf) +
                      static_cast<double>(rng.uniform_int(-1, 1)) * 2e-9;
      } else {
        // Up to 1.2 tau: some bounds no step assignment can meet.
        hold.lambda = rng.uniform(-tau, 1.2 * tau);
      }
      inst.hold.push_back(hold);
    }
  }

  // Solve in shuffled order through one workspace, so state left behind by
  // a differently shaped instance would show.
  std::vector<std::size_t> order(kInstances);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = kInstances - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i)))]);
  }
  core::AlignmentWorkspace ws;
  std::size_t crowded = 0;  // some buffer referenced by >= 3 entries
  std::size_t infeasible = 0;
  std::size_t frozen = 0;
  std::size_t moved = 0;
  std::set<std::size_t> sizes;
  std::set<std::size_t> buffer_counts;
  for (const std::size_t c : order) {
    const core::AlignmentInstance& inst = instances[c];
    SCOPED_TRACE("instance " + std::to_string(c));
    const core::AlignmentResult got = core::solve_alignment(inst, &ws);
    core::AlignmentResult want;
    if (inst.entries.empty()) {
      want.steps = inst.current_steps;  // solve_alignment's early return
    } else {
      want = reference_cd::solve_coordinate_descent(inst);
    }
    ASSERT_TRUE(same_bits(got.period, want.period))
        << got.period << " vs " << want.period;
    ASSERT_TRUE(same_bits(got.objective, want.objective))
        << got.objective << " vs " << want.objective;
    ASSERT_EQ(got.steps, want.steps);
    ASSERT_EQ(got.feasible, want.feasible);

    sizes.insert(inst.entries.size());
    buffer_counts.insert(inst.problem->num_buffers());
    std::vector<int> refs(inst.problem->num_buffers(), 0);
    for (const core::AlignmentEntry& e : inst.entries) {
      if (e.src_buf >= 0) ++refs[static_cast<std::size_t>(e.src_buf)];
      if (e.dst_buf >= 0 && e.dst_buf != e.src_buf) {
        ++refs[static_cast<std::size_t>(e.dst_buf)];
      }
    }
    crowded += std::any_of(refs.begin(), refs.end(),
                           [](int r) { return r >= 3; })
                   ? 1
                   : 0;
    infeasible += got.feasible ? 0 : 1;
    frozen += inst.allow_buffer_moves ? 0 : 1;
    moved += got.steps != inst.current_steps ? 1 : 0;
  }
  // The sweep covers what it claims to.
  EXPECT_EQ(sizes.size(), 15u);          // 0..14 entries
  EXPECT_EQ(buffer_counts.size(), 8u);   // nb 1..8
  EXPECT_GT(crowded, kInstances / 4);
  EXPECT_GT(infeasible, kInstances / 20);
  EXPECT_GT(frozen, kInstances / 20);
  EXPECT_GT(moved, kInstances / 4);
}

TEST(PropAlignment, FlowInstancesMatchReferenceBitwise) {
  // The tester's own instances: DelayTestMachine drives dies 0-49 of the
  // seed-2016 stream on s9234 and s38584, and each stimulus's instance is
  // rebuilt from the machine's public state (the armed set, the bounds and
  // the steps before the stimulus, the middle-out weights). Its solve must
  // match the reference bit for bit, and reproduce the stimulus.
  std::size_t solves = 0;
  std::size_t max_entries = 0;
  std::size_t max_buffers = 0;
  std::size_t moved = 0;
  for (const char* circuit : {"s9234", "s38584"}) {
    SCOPED_TRACE(circuit);
    core::FlowOptions options;
    options.seed = 2016;
    options.threads = 1;
    const core::TunerService service(
        scenario::CircuitCatalog::shared_paper()->resolve(circuit), options);
    const core::Problem& problem = service.problem();
    const core::FlowArtifacts& art = service.artifacts();
    const core::TestOptions& test = service.test_options();
    timing::SampleWorkspace sample_ws;
    core::AlignmentWorkspace ws;
    std::vector<double> centers;
    std::vector<std::size_t> order;
    std::vector<double> weights;
    for (std::size_t c = 0; c < 50; ++c) {
      stats::Rng rng(parallel::index_seed(service.monte_carlo_seed_base(), c));
      const timing::Chip chip = problem.model().sample_chip(rng, sample_ws);
      core::SimulatedChip tester(problem, chip);
      core::DelayTestMachine machine(problem, art.batches, art.prior_lower,
                                     art.prior_upper, art.hold, test);
      while (!machine.done()) {
        core::AlignmentInstance inst;
        inst.problem = &problem;
        inst.hold = art.hold;
        inst.allow_buffer_moves = test.align_with_buffers;
        inst.current_steps = machine.result().final_steps;
        const core::Stimulus& stimulus = machine.next_stimulus();
        const core::TestRunResult& state = machine.result();
        centers.clear();
        for (const std::size_t p : stimulus.armed) {
          centers.push_back(0.5 * (state.lower[p] + state.upper[p]));
        }
        core::middle_out_weights(centers, test.k0, test.kd, order, weights);
        std::set<int> buffers;
        for (std::size_t i = 0; i < centers.size(); ++i) {
          const std::size_t p = stimulus.armed[i];
          inst.entries.push_back(core::AlignmentEntry{
              centers[i], weights[i], problem.src_buffer(p),
              problem.dst_buffer(p)});
          for (const int b : {problem.src_buffer(p), problem.dst_buffer(p)}) {
            if (b >= 0) buffers.insert(b);
          }
        }
        SCOPED_TRACE("die " + std::to_string(c) + " iteration " +
                     std::to_string(state.iterations));
        const core::AlignmentResult got = core::solve_alignment(inst, &ws);
        const core::AlignmentResult want =
            reference_cd::solve_coordinate_descent(inst);
        ASSERT_TRUE(same_bits(got.period, want.period))
            << got.period << " vs " << want.period;
        ASSERT_TRUE(same_bits(got.objective, want.objective))
            << got.objective << " vs " << want.objective;
        ASSERT_EQ(got.steps, want.steps);
        ASSERT_EQ(got.feasible, want.feasible);
        ASSERT_TRUE(same_bits(got.period, stimulus.period));
        ASSERT_EQ(got.steps, stimulus.steps);

        ++solves;
        max_entries = std::max(max_entries, inst.entries.size());
        max_buffers = std::max(max_buffers, buffers.size());
        moved += got.steps != inst.current_steps ? 1 : 0;
        machine.record_response(tester.apply(stimulus));
      }
    }
  }
  // The tester's mix: up to 10 entries over up to 7 buffers.
  EXPECT_GT(solves, 5000u);
  EXPECT_EQ(max_entries, 10u);
  EXPECT_EQ(max_buffers, 7u);
  EXPECT_GT(moved, solves / 4);
}

namespace reference_sweep {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// The full-netlist sweep TimingGraph::sweep replaced: every cell in
// topological order, verbatim except that the graph's members arrive as
// arguments.
timing::TimingGraph::ConeArrival sweep(const netlist::Netlist& nl,
                                       const timing::TimingGraph& g,
                                       const std::vector<int>& topo_order,
                                       int src_ff) {
  const std::size_t n = nl.num_cells();
  timing::TimingGraph::ConeArrival cone;
  cone.max_arrival.assign(n, kNegInf);
  cone.min_arrival.assign(n, kNegInf);
  cone.max_arrival[static_cast<std::size_t>(src_ff)] = g.cell_delay(src_ff);
  cone.min_arrival[static_cast<std::size_t>(src_ff)] = g.cell_delay(src_ff);

  for (int id : topo_order) {
    const netlist::Cell& c = nl.cell(id);
    if (!netlist::is_combinational(c.type)) continue;
    double best_max = kNegInf;
    double best_min = kNegInf;
    for (int u : c.fanins) {
      const double am = cone.max_arrival[static_cast<std::size_t>(u)];
      if (am == kNegInf) continue;
      best_max = std::max(best_max, am);
      const double an = cone.min_arrival[static_cast<std::size_t>(u)];
      best_min = (best_min == kNegInf) ? an : std::min(best_min, an);
    }
    if (best_max != kNegInf) {
      const auto i = static_cast<std::size_t>(id);
      cone.max_arrival[i] = best_max + g.cell_delay(id);
      cone.min_arrival[i] = best_min + g.cell_delay(id);
    }
  }
  return cone;
}

// The all_pair_delays that scanned every capturing FF per source, verbatim
// except for its arguments and the sweep above.
std::vector<timing::PairDelay> all_pair_delays(
    const netlist::Netlist& nl, const timing::TimingGraph& g,
    const std::vector<int>& topo_order) {
  std::vector<timing::PairDelay> out;
  const std::vector<int> ffs = nl.flip_flops();
  for (int s : ffs) {
    const timing::TimingGraph::ConeArrival cone = sweep(nl, g, topo_order, s);
    for (int t : ffs) {
      const int w = nl.cell(t).fanins.empty() ? -1 : nl.cell(t).fanins[0];
      if (w < 0) continue;
      const double am = cone.max_arrival[static_cast<std::size_t>(w)];
      if (am == kNegInf) continue;
      out.push_back(timing::PairDelay{
          s, t, am, cone.min_arrival[static_cast<std::size_t>(w)]});
    }
  }
  return out;
}

}  // namespace reference_sweep

/// A seeded random netlist: 1-3 inputs, 2-10 DFFs, 4-60 gates of 1-4
/// fanins drawn from everything built before them (so paths reconverge and
/// fanins repeat), a few primary outputs, and D pins driven by a gate, by
/// another DFF directly, or by the DFF itself. Some DFFs feed no gate, so
/// their combinational cone is empty.
netlist::Netlist random_netlist(stats::Rng& rng) {
  static constexpr netlist::CellType kUnary[] = {netlist::CellType::kBuf,
                                                 netlist::CellType::kNot};
  static constexpr netlist::CellType kMulti[] = {
      netlist::CellType::kAnd, netlist::CellType::kNand,
      netlist::CellType::kOr,  netlist::CellType::kNor,
      netlist::CellType::kXor, netlist::CellType::kXnor};
  const auto pick = [&rng](const auto& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(std::size(from)) - 1))];
  };
  netlist::Netlist nl;
  std::vector<int> drivers;  // cells a gate may read
  const auto inputs = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < inputs; ++i) {
    drivers.push_back(nl.add_cell("i" + std::to_string(i),
                                  netlist::CellType::kInput));
  }
  std::vector<int> ffs;
  const auto num_ffs = rng.uniform_int(2, 10);
  for (std::int64_t i = 0; i < num_ffs; ++i) {
    ffs.push_back(nl.add_cell("f" + std::to_string(i),
                              netlist::CellType::kDff));
    if (rng.uniform() < 0.75) drivers.push_back(ffs.back());
  }
  std::vector<int> gates;
  const auto num_gates = rng.uniform_int(4, 60);
  for (std::int64_t i = 0; i < num_gates; ++i) {
    const auto arity = rng.uniform_int(1, 4);
    std::vector<int> fanins;
    for (std::int64_t k = 0; k < arity; ++k) fanins.push_back(pick(drivers));
    const netlist::CellType type = arity == 1 ? pick(kUnary) : pick(kMulti);
    gates.push_back(
        nl.add_cell("g" + std::to_string(i), type, std::move(fanins)));
    drivers.push_back(gates.back());
  }
  for (int o = 0; o < 2; ++o) {
    nl.add_cell("o" + std::to_string(o), netlist::CellType::kOutput,
                {pick(gates)});
  }
  for (int ff : ffs) {
    const double u = rng.uniform();
    nl.set_fanins(ff, {u < 0.1 ? ff : u < 0.25 ? pick(ffs) : pick(gates)});
  }
  nl.validate();
  return nl;
}

bool same_arrivals(const timing::TimingGraph::ConeArrival& a,
                   const timing::TimingGraph::ConeArrival& b) {
  return std::equal(a.max_arrival.begin(), a.max_arrival.end(),
                    b.max_arrival.begin(), b.max_arrival.end(), same_bits) &&
         std::equal(a.min_arrival.begin(), a.min_arrival.end(),
                    b.min_arrival.begin(), b.min_arrival.end(), same_bits);
}

TEST(PropSweep, ConeSweepMatchesFullNetlistSweepBitwise) {
  const netlist::CellLibrary library = netlist::CellLibrary::standard();
  stats::Rng rng(2016);
  for (int c = 0; c < kCases; ++c) {
    const netlist::Netlist nl = random_netlist(rng);
    const timing::TimingGraph g(nl, library);
    const std::vector<int> topo = nl.topological_order();
    const std::vector<int> ffs = nl.flip_flops();
    // Every source in turn through one buffer: each sweep starts from the
    // previous source's leftovers.
    timing::TimingGraph::ConeArrival reused;
    for (int s : ffs) {
      g.sweep(s, reused);
      ASSERT_TRUE(same_arrivals(reused, reference_sweep::sweep(nl, g, topo, s)))
          << "case " << c << " source " << s;
    }
    // A then B into one buffer equals a fresh sweep of B.
    for (int k = 0; k < 4; ++k) {
      const auto pick = [&rng, &ffs] {
        return ffs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ffs.size()) - 1))];
      };
      const int a = pick();
      const int b = pick();
      timing::TimingGraph::ConeArrival chained;
      timing::TimingGraph::ConeArrival fresh;
      g.sweep(a, chained);
      g.sweep(b, chained);
      g.sweep(b, fresh);
      ASSERT_TRUE(same_arrivals(chained, fresh))
          << "case " << c << " sources " << a << " then " << b;
    }
  }
}

TEST(PropSweep, PairDelaysMatchFullScanBitwise) {
  const netlist::CellLibrary library = netlist::CellLibrary::standard();
  stats::Rng rng(2017);
  for (int c = 0; c < kCases; ++c) {
    const netlist::Netlist nl = random_netlist(rng);
    const timing::TimingGraph g(nl, library);
    const std::vector<timing::PairDelay> got = g.all_pair_delays();
    const std::vector<timing::PairDelay> want =
        reference_sweep::all_pair_delays(nl, g, nl.topological_order());
    ASSERT_EQ(got.size(), want.size()) << "case " << c;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].src_ff, want[i].src_ff) << "case " << c << " pair " << i;
      ASSERT_EQ(got[i].dst_ff, want[i].dst_ff) << "case " << c << " pair " << i;
      ASSERT_TRUE(same_bits(got[i].max_delay, want[i].max_delay) &&
                  same_bits(got[i].min_delay, want[i].min_delay))
          << "case " << c << " pair " << i;
    }
  }
}

}  // namespace
}  // namespace effitest
