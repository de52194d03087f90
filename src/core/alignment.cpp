#include "core/alignment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>


namespace effitest::core {

namespace {

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
/// entry), ascending, and points ws.slot at their positions. Undone by
/// release_involved, which keeps ws.involved.
void collect_involved(const AlignmentInstance& inst, AlignmentWorkspace& ws) {
  if (ws.slot.size() < inst.problem->num_buffers()) {
    ws.slot.resize(inst.problem->num_buffers(), -1);
  }
  ws.involved.clear();
  if (!inst.allow_buffer_moves) return;
  const auto mark = [&](int b) {
    if (b >= 0 && ws.slot[static_cast<std::size_t>(b)] < 0) {
      ws.slot[static_cast<std::size_t>(b)] = 0;
      ws.involved.push_back(b);
    }
  };
  for (const AlignmentEntry& e : inst.entries) {
    mark(e.src_buf);
    mark(e.dst_buf);
  }
  std::sort(ws.involved.begin(), ws.involved.end());
  for (std::size_t v = 0; v < ws.involved.size(); ++v) {
    ws.slot[static_cast<std::size_t>(ws.involved[v])] = static_cast<int>(v);
  }
}

void release_involved(AlignmentWorkspace& ws) {
  for (int b : ws.involved) ws.slot[static_cast<std::size_t>(b)] = -1;
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

/// sum over static points of w * |T - m|.
double static_objective(const AlignmentWorkspace& ws, double t) {
  const std::size_t n = ws.points.size();
  const std::size_t k = static_cast<std::size_t>(
      std::upper_bound(ws.points.begin(), ws.points.end(), t,
                       [](double v, const std::pair<double, double>& p) {
                         return v < p.first;
                       }) -
      ws.points.begin());
  const double left = t * ws.prefix_w[k] - ws.prefix_wm[k];
  const double right = (ws.prefix_wm[n] - ws.prefix_wm[k]) -
                       t * (ws.prefix_w[n] - ws.prefix_w[k]);
  return left + right;
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
void prepare_crossings(AlignmentWorkspace& ws) {
  ws.crossings.clear();
  if (ws.points.empty()) return;
  double dyn_w = 0.0;
  for (const auto& [m, w] : ws.dynamic) dyn_w += w;
  const double half = 0.5 * (ws.prefix_w.back() + dyn_w);
  const auto add = [&](double target) {
    const double t = point_at_mass(ws, target);
    ws.crossings.emplace_back(t, static_objective(ws, t));
  };
  add(half);
  double left_dyn = 0.0;
  for (const auto& [m, w] : ws.dynamic) {
    left_dyn += w;
    add(half - left_dyn);
  }
}

/// Best (T, objective) for the static points plus ws.dynamic. The L1
/// optimum sits on one of the points; the candidates are the dynamic points,
/// then the crossings, and the first strict improvement wins.
std::pair<double, double> best_period(const AlignmentWorkspace& ws) {
  double best_t = !ws.dynamic.empty()     ? ws.dynamic.front().first
                  : !ws.crossings.empty() ? ws.crossings.front().first
                                          : 0.0;
  double best_obj = std::numeric_limits<double>::infinity();
  const auto evaluate = [&](double t, double static_obj) {
    double obj = static_obj;
    for (const auto& [m, w] : ws.dynamic) obj += w * std::abs(t - m);
    if (obj < best_obj) {
      best_obj = obj;
      best_t = t;
    }
  };
  for (const auto& [m, w] : ws.dynamic) evaluate(m, static_objective(ws, m));
  for (const auto& [t, static_obj] : ws.crossings) evaluate(t, static_obj);
  return {best_t, best_obj};
}

AlignmentResult solve_coordinate_descent(const AlignmentInstance& inst,
                                         AlignmentWorkspace& ws) {
  const Problem& problem = *inst.problem;
  const std::span<const AlignmentEntry> entries = inst.entries;
  AlignmentResult out;
  out.steps = inst.current_steps;

  // Buffers that may move: those referenced by an entry. Moving buffer b
  // changes only the entries that reference it and can break only the hold
  // bounds that reference it, so only those are re-evaluated per step.
  collect_involved(inst, ws);
  group_by_buffer(entries, ws, ws.entry_start, ws.entry_index);
  group_by_buffer(std::span<const HoldConstraintX>(inst.hold), ws,
                  ws.hold_start, ws.hold_index);
  release_involved(ws);

  // Initial (T, objective) with every entry static.
  ws.shifted.resize(entries.size());
  ws.points.clear();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    ws.shifted[i] = shifted_center(problem, entries[i], out.steps);
    ws.points.emplace_back(ws.shifted[i], entries[i].weight);
  }
  build_static(ws);
  ws.dynamic.clear();
  prepare_crossings(ws);
  const auto [period, objective] = best_period(ws);
  out.period = period;
  double best = objective;

  for (int round = 0; round < 32; ++round) {
    bool changed = false;
    for (std::size_t v = 0; v < ws.involved.size(); ++v) {
      const int b = ws.involved[v];
      const auto bi = static_cast<std::size_t>(b);
      const TunableBuffer& buf = problem.buffers()[bi];
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

      const int saved = out.steps[bi];
      int best_step = saved;
      double best_t = out.period;
      ws.dynamic.resize(dyn_idx.size());
      for (std::size_t d = 0; d < dyn_idx.size(); ++d) {
        ws.dynamic[d].second = entries[dyn_idx[d]].weight;
      }
      prepare_crossings(ws);
      for (int k = 0; k < buf.steps; ++k) {
        if (k == saved) continue;
        out.steps[bi] = k;
        const bool hold_broken =
            std::any_of(hold_idx.begin(), hold_idx.end(), [&](std::size_t h) {
              const HoldConstraintX& hc = inst.hold[h];
              const double skew = x_of(problem, out.steps, hc.src_buf) -
                                  x_of(problem, out.steps, hc.dst_buf);
              return skew < hc.lambda - 1e-9;
            });
        if (hold_broken) continue;
        for (std::size_t d = 0; d < dyn_idx.size(); ++d) {
          ws.dynamic[d].first =
              shifted_center(problem, entries[dyn_idx[d]], out.steps);
        }
        const auto [t, obj] = best_period(ws);
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
        for (std::size_t i : dyn_idx) {
          ws.shifted[i] = shifted_center(problem, entries[i], out.steps);
        }
      }
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
    const AlignmentInstance& instance) {
  if (instance.problem == nullptr) {
    throw std::invalid_argument("solve_alignment: missing problem");
  }
  if (instance.entries.empty()) {
    AlignmentResult out;
    out.steps = instance.current_steps;
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
                                AlignmentWorkspace* workspace) {
  if (auto done = trivial_result(instance)) return *std::move(done);
  AlignmentWorkspace local;
  return solve_coordinate_descent(
      instance, workspace != nullptr ? *workspace : local);
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
