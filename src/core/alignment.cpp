#include "core/alignment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>


namespace effitest::core {

namespace {

/// Move count of a buffer not yet visited in this solve.
constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// Buffer value for a (possibly absent) buffer index under `steps`.
double x_of(const Problem& problem, std::span<const int> steps, int buf) {
  if (buf < 0) return 0.0;
  return problem.buffers()[static_cast<std::size_t>(buf)].value(
      steps[static_cast<std::size_t>(buf)]);
}

/// (u + l)/2 + x_src - x_dst of one entry under `steps`.
double shifted_center(const Problem& problem, const AlignmentEntry& e,
                      std::span<const int> steps) {
  return e.center + x_of(problem, steps, e.src_buf) -
         x_of(problem, steps, e.dst_buf);
}

/// Fills ws.involved with the buffers that may move (those referenced by an
/// entry), ascending and not yet visited, and points ws.slot at their
/// positions. Undone by release_involved, which keeps ws.involved.
void collect_involved(const AlignmentInstance& inst, AlignmentWorkspace& ws) {
  if (ws.slot.size() < inst.problem->num_buffers()) {
    ws.slot.resize(inst.problem->num_buffers(), -1);
  }
  ws.involved.clear();
  if (!inst.allow_buffer_moves) return;
  const auto mark = [&](int b) {
    if (b >= 0 && ws.slot[static_cast<std::size_t>(b)] < 0) {
      ws.slot[static_cast<std::size_t>(b)] = 0;
      ws.involved.push_back({b, -1, kNever});
    }
  };
  for (const AlignmentEntry& e : inst.entries) {
    mark(e.src_buf);
    mark(e.dst_buf);
  }
  std::sort(ws.involved.begin(), ws.involved.end(),
            [](const AlignmentWorkspace::Movable& a,
               const AlignmentWorkspace::Movable& b) {
              return a.buffer < b.buffer;
            });
  for (std::size_t v = 0; v < ws.involved.size(); ++v) {
    ws.slot[static_cast<std::size_t>(ws.involved[v].buffer)] =
        static_cast<int>(v);
  }
}

void release_involved(AlignmentWorkspace& ws) {
  for (const AlignmentWorkspace::Movable& m : ws.involved) {
    ws.slot[static_cast<std::size_t>(m.buffer)] = -1;
  }
}

/// CSR lists of the items (entries or hold bounds) referencing each
/// involved buffer, each list in ascending item order.
template <typename Item>
void group_by_buffer(std::span<const Item> items, const AlignmentWorkspace& ws,
                     std::vector<std::size_t>& start,
                     std::vector<std::size_t>& index) {
  const auto slot_of = [&](int b) {
    return b < 0 ? -1 : ws.slot[static_cast<std::size_t>(b)];
  };
  // Calls fn once per involved buffer the item references.
  const auto for_each_slot = [&](const Item& it, auto&& fn) {
    const int s = slot_of(it.src_buf);
    const int d = it.dst_buf == it.src_buf ? -1 : slot_of(it.dst_buf);
    if (s >= 0) fn(static_cast<std::size_t>(s));
    if (d >= 0) fn(static_cast<std::size_t>(d));
  };
  const std::size_t groups = ws.involved.size();
  start.assign(groups + 1, 0);
  for (const Item& it : items) {
    for_each_slot(it, [&](std::size_t v) { ++start[v + 1]; });
  }
  for (std::size_t v = 0; v < groups; ++v) start[v + 1] += start[v];
  index.resize(start[groups]);
  // Fill with start[v] as the write cursor, then shift the starts back.
  for (std::size_t i = 0; i < items.size(); ++i) {
    for_each_slot(items[i], [&](std::size_t v) { index[start[v]++] = i; });
  }
  for (std::size_t v = groups; v > 0; --v) start[v] = start[v - 1];
  start[0] = 0;
}

/// Sorts ws.points and builds their prefix sums: the static point set whose
/// sum(w |T - m|) evaluates in O(log n).
void build_static(AlignmentWorkspace& ws) {
  std::sort(ws.points.begin(), ws.points.end());
  const std::size_t n = ws.points.size();
  ws.prefix_w.resize(n + 1);
  ws.prefix_wm.resize(n + 1);
  ws.prefix_w[0] = 0.0;
  ws.prefix_wm[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [m, w] = ws.points[i];
    ws.prefix_w[i + 1] = ws.prefix_w[i] + w;
    ws.prefix_wm[i + 1] = ws.prefix_wm[i] + w * m;
  }
}

/// sum over static points of w * |T - m|, where the first `k` points are
/// at or below T.
double static_objective_at(const AlignmentWorkspace& ws, double t,
                           std::size_t k) {
  const std::size_t n = ws.points.size();
  const double left = t * ws.prefix_w[k] - ws.prefix_wm[k];
  const double right = (ws.prefix_wm[n] - ws.prefix_wm[k]) -
                       t * (ws.prefix_w[n] - ws.prefix_w[k]);
  return left + right;
}

/// sum over static points of w * |T - m|.
double static_objective(const AlignmentWorkspace& ws, double t) {
  const std::size_t k = static_cast<std::size_t>(
      std::upper_bound(ws.points.begin(), ws.points.end(), t,
                       [](double v, const std::pair<double, double>& p) {
                         return v < p.first;
                       }) -
      ws.points.begin());
  return static_objective_at(ws, t, k);
}

/// Static point whose cumulative weight first reaches `target`.
double point_at_mass(const AlignmentWorkspace& ws, double target) {
  const std::size_t n = ws.points.size();
  const std::size_t k = static_cast<std::size_t>(
      std::lower_bound(ws.prefix_w.begin() + 1, ws.prefix_w.end(), target) -
      (ws.prefix_w.begin() + 1));
  return ws.points[std::min(k, n - 1)].first;
}

/// The static mass crossings for every split of the dynamic weight, each
/// with its static objective. They depend on the dynamic weights, not the
/// dynamic values, so one set serves every step of the moving buffer.
void prepare_crossings(std::span<const AlignmentEntry> entries,
                       std::span<const std::size_t> dyn_idx,
                       AlignmentWorkspace& ws) {
  ws.crossings.clear();
  if (ws.points.empty()) return;
  double dyn_w = 0.0;
  for (const std::size_t i : dyn_idx) dyn_w += entries[i].weight;
  const double half = 0.5 * (ws.prefix_w.back() + dyn_w);
  const auto add = [&](double target) {
    const double t = point_at_mass(ws, target);
    ws.crossings.emplace_back(t, static_objective(ws, t));
  };
  add(half);
  double left_dyn = 0.0;
  for (const std::size_t i : dyn_idx) {
    left_dyn += entries[i].weight;
    add(half - left_dyn);
  }
}

/// The step trials of buffer b at steps [lo, hi), one lane j = k - lo per
/// step, every other buffer at `steps`: per lane the best (T, objective)
/// for the static points plus the entries `dyn_idx`, which reference b.
/// The L1 optimum sits on one of the points; the candidates are the
/// dynamic points, then the crossings, and the first strict improvement
/// wins, picked by a select rather than a branch. Each lane evaluates the
/// expressions of a lone trial in the same order, so it holds what that
/// trial would. Fills ws.lanes (layout in AlignmentWorkspace).
void sweep_steps(const AlignmentInstance& inst, std::span<const int> steps,
                 int b, int lo, int hi, std::span<const std::size_t> dyn_idx,
                 AlignmentWorkspace& ws) {
  const Problem& problem = *inst.problem;
  const TunableBuffer& buf = problem.buffers()[static_cast<std::size_t>(b)];
  const auto lanes = static_cast<std::size_t>(hi - lo);
  const std::size_t dyn = dyn_idx.size();
  ws.lanes.resize((3 + 2 * dyn) * lanes);
  double* const best_t = ws.lanes.data();
  double* const best_obj = best_t + lanes;
  double* const obj = best_obj + lanes;
  double* const centers = obj + lanes;
  double* const statics = centers + dyn * lanes;

  for (std::size_t d = 0; d < dyn; ++d) {
    const AlignmentEntry& e = inst.entries[dyn_idx[d]];
    const bool src_moves = e.src_buf == b;
    const bool dst_moves = e.dst_buf == b;
    const double xs = x_of(problem, steps, e.src_buf);
    const double xd = x_of(problem, steps, e.dst_buf);
    double* const m = centers + d * lanes;
    for (std::size_t j = 0; j < lanes; ++j) {
      const double x = buf.value(lo + static_cast<int>(j));
      m[j] = e.center + (src_moves ? x : xs) - (dst_moves ? x : xd);
    }
    // The static objective at each center: count the static points at or
    // below it (std::upper_bound's index) without a branch, then apply the
    // prefix sums.
    double* const s = statics + d * lanes;
    std::fill_n(s, lanes, 0.0);
    for (const auto& [p, w] : ws.points) {
      for (std::size_t j = 0; j < lanes; ++j) s[j] += m[j] < p ? 0.0 : 1.0;
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      s[j] = static_objective_at(ws, m[j], static_cast<std::size_t>(s[j]));
    }
  }

  std::copy_n(centers, lanes, best_t);
  std::fill_n(best_obj, lanes, std::numeric_limits<double>::infinity());
  // One candidate per lane: period t(j) with static objective s(j).
  const auto offer = [&](auto&& t, auto&& s) {
    for (std::size_t j = 0; j < lanes; ++j) obj[j] = s(j);
    for (std::size_t d = 0; d < dyn; ++d) {
      const double w = inst.entries[dyn_idx[d]].weight;
      const double* const m = centers + d * lanes;
      for (std::size_t j = 0; j < lanes; ++j) {
        obj[j] += w * std::abs(t(j) - m[j]);
      }
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      // Every load and both selects before either store: the compiler then
      // keeps them selects (vector blends) instead of a conditional store.
      const double o = obj[j];
      const double bo = best_obj[j];
      const double tj = t(j);
      const double bt = best_t[j];
      const bool take = o < bo;
      const double new_obj = take ? o : bo;
      const double new_t = take ? tj : bt;
      best_obj[j] = new_obj;
      best_t[j] = new_t;
    }
  };
  for (std::size_t c = 0; c < dyn; ++c) {
    const double* const m = centers + c * lanes;
    const double* const s = statics + c * lanes;
    offer([m](std::size_t j) { return m[j]; },
          [s](std::size_t j) { return s[j]; });
  }
  for (const auto& [t, static_obj] : ws.crossings) {
    offer([t](std::size_t) { return t; },
          [static_obj](std::size_t) { return static_obj; });
  }
}

AlignmentResult solve_coordinate_descent(const AlignmentInstance& inst,
                                         AlignmentWorkspace& ws,
                                         std::vector<int> steps) {
  const Problem& problem = *inst.problem;
  const std::span<const AlignmentEntry> entries = inst.entries;
  AlignmentResult out;
  out.steps = std::move(steps);
  out.steps.assign(inst.current_steps.begin(), inst.current_steps.end());

  // Buffers that may move: those referenced by an entry. Moving buffer b
  // changes only the entries that reference it and can break only the hold
  // bounds that reference it, so only those are re-evaluated per step.
  collect_involved(inst, ws);
  group_by_buffer(entries, ws, ws.entry_start, ws.entry_index);
  group_by_buffer(std::span<const HoldConstraintX>(inst.hold), ws,
                  ws.hold_start, ws.hold_index);
  release_involved(ws);

  // Initial (T, objective) with every entry static: the one candidate is
  // the crossing at half the weight, taken if it improves on infinity.
  ws.shifted.resize(entries.size());
  ws.points.clear();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    ws.shifted[i] = shifted_center(problem, entries[i], out.steps);
    ws.points.emplace_back(ws.shifted[i], entries[i].weight);
  }
  build_static(ws);
  out.period = point_at_mass(ws, 0.5 * ws.prefix_w.back());
  const double objective = static_objective(ws, out.period);
  double best = objective < std::numeric_limits<double>::infinity()
                    ? objective
                    : std::numeric_limits<double>::infinity();

  // A visit of b depends on the other buffers' steps and on `best`, which
  // falls only when a buffer moves. So when no buffer moved since b's last
  // visit, a revisit would repeat that visit's trials, and none of them can
  // be accepted: each stood at or above the running best - 1e-12, which
  // never fell below the final one. The one step never tried in this state
  // is the one b left at that visit, if it moved; only it is tried.
  std::size_t moves = 0;
  for (int round = 0; round < 32; ++round) {
    bool changed = false;
    for (std::size_t v = 0; v < ws.involved.size(); ++v) {
      AlignmentWorkspace::Movable& mover = ws.involved[v];
      const int b = mover.buffer;
      const auto bi = static_cast<std::size_t>(b);
      int lo = 0;
      int hi = problem.buffers()[bi].steps;
      if (mover.seen_moves == moves) {
        if (mover.left_step < 0) continue;
        lo = mover.left_step;
        hi = lo + 1;
      }
      const std::span<const std::size_t> dyn_idx(
          ws.entry_index.data() + ws.entry_start[v],
          ws.entry_start[v + 1] - ws.entry_start[v]);
      const std::span<const std::size_t> hold_idx(
          ws.hold_index.data() + ws.hold_start[v],
          ws.hold_start[v + 1] - ws.hold_start[v]);

      // Static part: every entry not touching b, at the current steps.
      ws.points.clear();
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].src_buf == b || entries[i].dst_buf == b) continue;
        ws.points.emplace_back(ws.shifted[i], entries[i].weight);
      }
      build_static(ws);
      prepare_crossings(entries, dyn_idx, ws);
      sweep_steps(inst, out.steps, b, lo, hi, dyn_idx, ws);

      // The trials in step order. A lane's hold bounds matter only when its
      // objective would be accepted: a broken one is skipped either way.
      const double* const lane_t = ws.lanes.data();
      const double* const lane_obj = lane_t + (hi - lo);
      const int saved = out.steps[bi];
      int best_step = saved;
      double best_t = out.period;
      for (int k = lo; k < hi; ++k) {
        if (k == saved || !(lane_obj[k - lo] < best - 1e-12)) continue;
        out.steps[bi] = k;
        const bool hold_broken =
            std::any_of(hold_idx.begin(), hold_idx.end(), [&](std::size_t h) {
              const HoldConstraintX& hc = inst.hold[h];
              const double skew = x_of(problem, out.steps, hc.src_buf) -
                                  x_of(problem, out.steps, hc.dst_buf);
              return skew < hc.lambda - 1e-9;
            });
        if (hold_broken) continue;
        best = lane_obj[k - lo];
        best_step = k;
        best_t = lane_t[k - lo];
      }
      out.steps[bi] = best_step;
      mover.left_step = -1;
      if (best_step != saved) {
        out.period = best_t;
        changed = true;
        ++moves;
        mover.left_step = saved;
        for (std::size_t i : dyn_idx) {
          ws.shifted[i] = shifted_center(problem, entries[i], out.steps);
        }
      }
      mover.seen_moves = moves;
    }
    if (!changed) break;
  }
  out.objective = best;
  out.feasible = hold_satisfied(inst, out.steps);
  return out;
}

/// Throws on a malformed instance. An instance without entries has nothing
/// to align: its result keeps the current steps.
std::optional<AlignmentResult> trivial_result(
    const AlignmentInstance& instance, std::vector<int>& steps) {
  if (instance.problem == nullptr) {
    throw std::invalid_argument("solve_alignment: missing problem");
  }
  if (instance.entries.empty()) {
    AlignmentResult out;
    out.steps = std::move(steps);
    out.steps.assign(instance.current_steps.begin(),
                     instance.current_steps.end());
    return out;
  }
  if (instance.current_steps.size() != instance.problem->num_buffers()) {
    throw std::invalid_argument("solve_alignment: bad current_steps size");
  }
  return std::nullopt;
}

}  // namespace

void middle_out_weights(std::span<const double> centers, double k0, double kd,
                        std::vector<std::size_t>& order,
                        std::vector<double>& weights) {
  const std::size_t n = centers.size();
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Equal centers rank by input index, so the order is fully specified and
  // does not depend on which sort algorithm the standard library picks.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return centers[a] < centers[b] || (centers[a] == centers[b] && a < b);
  });
  weights.resize(n);
  const double mid = (static_cast<double>(n) - 1.0) / 2.0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    const double dist = std::abs(static_cast<double>(rank) - mid);
    weights[order[rank]] = std::max(k0 - kd * dist, kd);
  }
}

AlignmentResult solve_alignment(const AlignmentInstance& instance,
                                AlignmentWorkspace* workspace,
                                std::vector<int> steps) {
  if (auto done = trivial_result(instance, steps)) return *std::move(done);
  AlignmentWorkspace local;
  return solve_coordinate_descent(
      instance, workspace != nullptr ? *workspace : local, std::move(steps));
}

double alignment_objective(const AlignmentInstance& instance, double period,
                           std::span<const int> steps) {
  double acc = 0.0;
  for (const AlignmentEntry& e : instance.entries) {
    const double shifted = shifted_center(*instance.problem, e, steps);
    acc += e.weight * std::abs(period - shifted);
  }
  return acc;
}

bool hold_satisfied(const AlignmentInstance& instance,
                    std::span<const int> steps) {
  for (const HoldConstraintX& h : instance.hold) {
    const double skew = x_of(*instance.problem, steps, h.src_buf) -
                        x_of(*instance.problem, steps, h.dst_buf);
    if (skew < h.lambda - 1e-9) return false;
  }
  return true;
}

}  // namespace effitest::core
