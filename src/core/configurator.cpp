#include "core/configurator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/difference_system.hpp"

namespace effitest::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Widest delay range u - l, at least 1 ps: past xi = span every soft
/// bound is dominated by its hard one.
double widest_range(std::span<const double> lower,
                    std::span<const double> upper) {
  double span = 1.0;
  for (std::size_t p = 0; p < lower.size(); ++p) {
    span = std::max(span, upper[p] - lower[p]);
  }
  return span;
}

/// The one expression that puts a bound in ps onto the step grid:
/// s_to - s_from <= floor((bound + offset) / step).
double on_grid(double bound_ps, double offset_ps, double step) {
  return std::floor((bound_ps + offset_ps) / step + 1e-9);
}

/// One merged step-grid edge: weight(xi) = min(hard, on_grid(soft + xi)).
struct GridEdge {
  double hard = kInf;   ///< floored hard bound and range cap, in steps
  double soft = kInf;   ///< soft bound, ps (relaxed by xi)
  double offset = 0.0;  ///< r_from - r_to, ps

  [[nodiscard]] double weight(double xi, double step) const {
    return std::min(hard, on_grid(soft + xi, offset, step));
  }
  /// The smallest xi at which the soft weight reaches k (to a few ulps of
  /// the bounds), from the same on_grid expression weight() evaluates.
  [[nodiscard]] double breakpoint(double k, double step) const {
    double xi = (k - 1e-9) * step - offset - soft;
    const double ulp =
        0x1p-50 * (std::abs(soft) + std::abs(offset) + std::abs(xi) + step);
    while (on_grid(soft + xi, offset, step) < k) xi += ulp;
    return xi;
  }
};

}  // namespace

ConfigResult configure_buffers(const Problem& problem, double designated_period,
                               std::span<const double> lower,
                               std::span<const double> upper,
                               std::span<const HoldConstraintX> hold,
                               const ConfigOptions& /*unused*/) {
  const std::size_t np = problem.model().num_pairs();
  if (lower.size() != np || upper.size() != np) {
    throw std::invalid_argument("configure_buffers: bounds size mismatch");
  }
  const std::size_t nb = problem.num_buffers();
  for (const HoldConstraintX& h : hold) {
    if (std::min(h.src_buf, h.dst_buf) < -1 ||
        std::max(h.src_buf, h.dst_buf) >= static_cast<int>(nb)) {
      throw std::invalid_argument("configure_buffers: hold buffer index");
    }
  }
  // Merge x_i - x_j <= c into the edge node(j) -> node(i) (node 0 = ground,
  // node b + 1 = buffer b). Constant and self constraints never reach the
  // graph: a soft one raises the xi floor, a violated hard one is fatal.
  const std::size_t n = nb + 1;
  BoundTable table(n);
  double xi_floor = 0.0;
  bool hard_infeasible = false;
  const auto add_upper = [&](int i, int j, double c, bool soft) {
    if (i != j) {
      table.tighten(j + 1, i + 1, c, soft);
    } else if (soft) {
      xi_floor = std::max(xi_floor, -c);
    } else if (c < (i < 0 ? -1e-12 : 0.0)) {
      hard_infeasible = true;
    }
  };
  for (std::size_t p = 0; p < np; ++p) {
    const int i = problem.src_buffer(p);
    const int j = problem.dst_buffer(p);
    // Hard: x_i - x_j <= td - l (keeps D' >= l feasible).
    add_upper(i, j, designated_period - lower[p], /*soft=*/false);
    // Soft: x_i - x_j <= td - u + xi.
    add_upper(i, j, designated_period - upper[p], /*soft=*/true);
  }
  for (const HoldConstraintX& h : hold) {
    // x_i - x_j >= lambda  =>  x_j - x_i <= -lambda.
    add_upper(h.dst_buf, h.src_buf, -h.lambda, /*soft=*/false);
  }
  ConfigResult out;
  if (hard_infeasible) return out;

  // Every buffer shares one grid (Problem's only constructor): x_b =
  // r_b + step * s_b with 0 <= s_b <= max_step, the range caps on the
  // ground edges.
  const double step = nb == 0 ? 1.0 : problem.buffers()[0].step_size();
  const double max_step = nb == 0 ? 0.0 : problem.buffers()[0].steps - 1;
  const auto r = [&](std::size_t node) {
    return node == 0 ? 0.0 : problem.buffers()[node - 1].r;
  };
  DifferenceSystem system(n);
  std::vector<GridEdge> grid;
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (from == to) continue;
      const double cap = from == 0 ? max_step : to == 0 ? 0.0 : kInf;
      const double offset = -r(to) + r(from);
      const std::size_t cell = from * n + to;
      const GridEdge e{std::min(cap, on_grid(table.hard[cell], offset, step)),
                       table.soft[cell], offset};
      if (e.hard == kInf && e.soft == kInf) continue;
      if (std::min(e.hard, e.soft) == -kInf) return out;  // impossible bound
      grid.push_back(e);
      system.edges.push_back(
          {static_cast<int>(from), static_cast<int>(to), 0.0});
    }
  }
  // Only the soft weights change between solves.
  const auto solve_at = [&](double xi) {
    for (std::size_t e = 0; e < grid.size(); ++e) {
      system.edges[e].weight = grid[e].weight(xi, step);
    }
    return system.solve();
  };
  const auto accept = [&](double xi) {
    const std::vector<double>& d = system.potentials();
    out.feasible = true;
    out.xi = xi;
    out.steps.resize(nb);
    for (std::size_t b = 0; b < nb; ++b) {
      out.steps[b] = static_cast<int>(d[b + 1] - d[0]);
    }
    return out;
  };
  if (solve_at(xi_floor)) return accept(xi_floor);

  // A floored soft weight changes only at finitely many xi; feasibility
  // is monotone in xi, so the optimum is the first feasible one of them.
  // The upper end needs one step of slack past the widest range.
  const double xi_hi = xi_floor + widest_range(lower, upper) + step;
  std::vector<double> breakpoints;
  for (const GridEdge& e : grid) {
    if (e.soft == kInf) continue;
    const double top = e.weight(xi_hi, step);
    for (double k = e.weight(xi_floor, step) + 1.0; k <= top; ++k) {
      breakpoints.push_back(e.breakpoint(k, step));
    }
  }
  std::sort(breakpoints.begin(), breakpoints.end());
  breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end()),
                    breakpoints.end());
  // The weights at the last breakpoint are those at xi_hi.
  if (breakpoints.empty() || !solve_at(breakpoints.back())) return out;
  const double xi = *std::partition_point(
      breakpoints.begin(), breakpoints.end() - 1,
      [&](double x) { return !solve_at(x); });
  solve_at(xi);
  return accept(xi);
}

ConfigResult configure_ideal(const Problem& problem, double designated_period,
                             const timing::Chip& chip,
                             const ConfigOptions& /*unused*/) {
  const timing::CircuitModel& model = problem.model();
  const std::size_t np = model.num_pairs();
  const double h = model.hold_time();
  // Perfect measurement: l = u = true delay; hold bounds from true margins.
  std::vector<HoldConstraintX> hold(np);
  for (std::size_t p = 0; p < np; ++p) {
    hold[p] = {problem.src_buffer(p), problem.dst_buffer(p),
               h - chip.min_delay[p]};
  }
  return configure_buffers(problem, designated_period, chip.max_delay,
                           chip.max_delay, hold);
}

}  // namespace effitest::core
