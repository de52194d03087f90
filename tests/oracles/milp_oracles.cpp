#include "milp_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "lp/solver.hpp"

namespace effitest::core {

namespace {

/// True for a proven optimum, false for a proven infeasible model (only
/// where `infeasible_ok`); throws on any other stop, so an incumbent from a
/// node or iteration limit never passes for an exact answer.
bool proven_optimal(const lp::Solution& sol, const char* oracle,
                    bool infeasible_ok) {
  if (sol.status == lp::SolveStatus::kOptimal) return true;
  if (infeasible_ok && sol.status == lp::SolveStatus::kInfeasible) {
    return false;
  }
  throw std::runtime_error(std::string(oracle) + ": solver stopped with " +
                           lp::to_string(sol.status));
}

/// Widest delay range u - l, at least 1 ps.
double widest_range(std::span<const double> lower,
                    std::span<const double> upper) {
  double span = 1.0;
  for (std::size_t p = 0; p < lower.size(); ++p) {
    span = std::max(span, upper[p] - lower[p]);
  }
  return span;
}

/// The buffers the alignment may move (those referenced by an entry),
/// ascending; none when buffer moves are off.
std::vector<int> involved_buffers(const AlignmentInstance& inst) {
  std::vector<int> involved;
  if (!inst.allow_buffer_moves) return involved;
  for (const AlignmentEntry& e : inst.entries) {
    for (int b : {e.src_buf, e.dst_buf}) {
      if (b >= 0) involved.push_back(b);
    }
  }
  std::sort(involved.begin(), involved.end());
  involved.erase(std::unique(involved.begin(), involved.end()),
                 involved.end());
  return involved;
}

/// Shared MILP scaffolding: builds variables T and s_b, returns via the
/// callback the linear expression terms of (T - shifted_center_p) for each
/// entry, then solves and extracts the assignment.
AlignmentResult solve_milp(const AlignmentInstance& inst, bool big_m) {
  const Problem& problem = *inst.problem;
  lp::Model model;

  // Clock period variable. Delay centers are positive in practice; give T a
  // generous box so the LP relaxation stays bounded.
  double center_span = 1.0;
  for (const AlignmentEntry& e : inst.entries) {
    center_span = std::max(center_span, std::abs(e.center));
  }
  double tau_max = 0.0;
  for (const auto& b : problem.buffers()) tau_max = std::max(tau_max, b.tau);
  const double t_hi = 2.0 * center_span + 2.0 * tau_max + 1.0;
  const int var_t = model.add_continuous(-t_hi, t_hi, 0.0, "T");

  // Step variables for involved buffers; frozen buffers contribute constants.
  const std::vector<int> involved = involved_buffers(inst);
  std::vector<int> step_var(problem.num_buffers(), -1);
  for (int b : involved) {
    const auto& buf = problem.buffers()[static_cast<std::size_t>(b)];
    step_var[static_cast<std::size_t>(b)] = model.add_integer(
        0.0, static_cast<double>(buf.steps - 1), 0.0, "s" + std::to_string(b));
  }

  // x_b as (constant, optional step term).
  const auto x_terms = [&](int buf, double sign, std::vector<lp::Term>& terms,
                           double& constant) {
    if (buf < 0) return;
    const auto bi = static_cast<std::size_t>(buf);
    const auto& bspec = problem.buffers()[bi];
    if (step_var[bi] >= 0) {
      constant += sign * bspec.r;
      terms.push_back({step_var[bi], sign * bspec.step_size()});
    } else {
      constant += sign * bspec.value(inst.current_steps[bi]);
    }
  };

  const double big = 4.0 * (center_span + tau_max + 1.0);
  std::vector<int> eta_vars;
  eta_vars.reserve(inst.entries.size());
  for (std::size_t p = 0; p < inst.entries.size(); ++p) {
    const AlignmentEntry& e = inst.entries[p];
    const int eta =
        model.add_continuous(0.0, lp::kInf, e.weight, "eta" + std::to_string(p));
    eta_vars.push_back(eta);

    // diff_p = T - (center + x_src - x_dst): expressed as terms + constant.
    std::vector<lp::Term> diff{{var_t, 1.0}};
    double constant = -e.center;
    x_terms(e.src_buf, -1.0, diff, constant);
    x_terms(e.dst_buf, +1.0, diff, constant);
    // `diff` terms + constant == diff_p.

    if (!big_m) {
      // Compact exact form: eta >= diff, eta >= -diff.
      std::vector<lp::Term> c1 = diff;
      c1.push_back({eta, -1.0});
      model.add_constraint(std::move(c1), lp::Sense::kLessEqual, -constant);
      std::vector<lp::Term> c2;
      for (const lp::Term& t : diff) c2.push_back({t.var, -t.coeff});
      c2.push_back({eta, -1.0});
      model.add_constraint(std::move(c2), lp::Sense::kLessEqual, constant);
    } else {
      // Paper's eqs. (8)-(13) with indicator binaries z^p, z^n.
      const int zp = model.add_binary(0.0, "zp" + std::to_string(p));
      const int zn = model.add_binary(0.0, "zn" + std::to_string(p));
      // (8):  diff <= M zp
      {
        std::vector<lp::Term> c = diff;
        c.push_back({zp, -big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual, -constant);
      }
      // (9):  diff - eta <= M (1 - zp)
      {
        std::vector<lp::Term> c = diff;
        c.push_back({eta, -1.0});
        c.push_back({zp, big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual,
                             -constant + big);
      }
      // (10): -diff + eta <= M (1 - zp)
      {
        std::vector<lp::Term> c;
        for (const lp::Term& t : diff) c.push_back({t.var, -t.coeff});
        c.push_back({eta, 1.0});
        c.push_back({zp, big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual,
                             constant + big);
      }
      // (11): -diff <= M zn
      {
        std::vector<lp::Term> c;
        for (const lp::Term& t : diff) c.push_back({t.var, -t.coeff});
        c.push_back({zn, -big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual, constant);
      }
      // (12): -diff - eta <= M (1 - zn)
      {
        std::vector<lp::Term> c;
        for (const lp::Term& t : diff) c.push_back({t.var, -t.coeff});
        c.push_back({eta, -1.0});
        c.push_back({zn, big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual,
                             constant + big);
      }
      // (13): diff + eta <= M (1 - zn)
      {
        std::vector<lp::Term> c = diff;
        c.push_back({eta, 1.0});
        c.push_back({zn, big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual,
                             -constant + big);
      }
    }
  }

  // Hold bounds (eq. 21): x_i - x_j >= lambda.
  for (const HoldConstraintX& h : inst.hold) {
    std::vector<lp::Term> terms;
    double constant = 0.0;
    x_terms(h.src_buf, +1.0, terms, constant);
    x_terms(h.dst_buf, -1.0, terms, constant);
    model.add_constraint(std::move(terms), lp::Sense::kGreaterEqual,
                         h.lambda - constant);
  }

  const lp::Solution sol = lp::solve(model);
  AlignmentResult out;
  out.steps = inst.current_steps;
  if (!proven_optimal(sol, "solve_alignment_milp", /*infeasible_ok=*/true)) {
    out.feasible = false;
    // Fall back to the current state with a median period.
    out.period = inst.entries.empty() ? 0.0 : inst.entries.front().center;
    out.objective = alignment_objective(inst, out.period, out.steps);
    return out;
  }
  out.period = sol.values[static_cast<std::size_t>(var_t)];
  for (int b : involved) {
    const auto bi = static_cast<std::size_t>(b);
    out.steps[bi] = static_cast<int>(
        std::lround(sol.values[static_cast<std::size_t>(step_var[bi])]));
  }
  out.objective = alignment_objective(inst, out.period, out.steps);
  out.feasible = hold_satisfied(inst, out.steps);
  return out;
}

}  // namespace

AlignmentResult solve_alignment_milp(const AlignmentInstance& instance,
                                     MilpForm form) {
  // The same instance checks, and the same no-entry result, as
  // solve_alignment.
  if (instance.problem == nullptr) {
    throw std::invalid_argument("solve_alignment_milp: missing problem");
  }
  if (instance.entries.empty()) {
    AlignmentResult out;
    out.steps = instance.current_steps;
    return out;
  }
  if (instance.current_steps.size() != instance.problem->num_buffers()) {
    throw std::invalid_argument("solve_alignment_milp: bad current_steps size");
  }
  return solve_milp(instance, form == MilpForm::kBigM);
}

ConfigResult configure_buffers_milp(const Problem& problem, double td,
                                    std::span<const double> lower,
                                    std::span<const double> upper,
                                    std::span<const HoldConstraintX> hold) {
  const std::size_t np = problem.model().num_pairs();
  if (lower.size() != np || upper.size() != np) {
    throw std::invalid_argument("configure_buffers_milp: bounds size mismatch");
  }
  lp::Model model;
  const std::size_t nb = problem.num_buffers();
  std::vector<int> s_var(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    s_var[b] = model.add_integer(
        0.0, static_cast<double>(problem.buffers()[b].steps - 1), 0.0,
        "s" + std::to_string(b));
  }
  const int xi_var = model.add_continuous(
      0.0, 2.0 * widest_range(lower, upper) + 10.0, 1.0, "xi");

  const auto x_terms = [&](int buf, double sign, std::vector<lp::Term>& terms,
                           double& constant) {
    if (buf < 0) return;
    const auto& b = problem.buffers()[static_cast<std::size_t>(buf)];
    constant += sign * b.r;
    terms.push_back({s_var[static_cast<std::size_t>(buf)], sign * b.step_size()});
  };

  for (std::size_t p = 0; p < lower.size(); ++p) {
    const int dp_var = model.add_continuous(lower[p], upper[p], 0.0,
                                            "D" + std::to_string(p));
    // (16): D' + x_i - x_j <= td.
    std::vector<lp::Term> c{{dp_var, 1.0}};
    double constant = 0.0;
    x_terms(problem.src_buffer(p), +1.0, c, constant);
    x_terms(problem.dst_buffer(p), -1.0, c, constant);
    model.add_constraint(std::move(c), lp::Sense::kLessEqual, td - constant);
    // (17): xi >= u - D'.
    model.add_constraint({{xi_var, 1.0}, {dp_var, 1.0}},
                         lp::Sense::kGreaterEqual, upper[p]);
  }
  // (21): hold bounds.
  for (const HoldConstraintX& h : hold) {
    std::vector<lp::Term> c;
    double constant = 0.0;
    x_terms(h.src_buf, +1.0, c, constant);
    x_terms(h.dst_buf, -1.0, c, constant);
    model.add_constraint(std::move(c), lp::Sense::kGreaterEqual,
                         h.lambda - constant);
  }

  const lp::Solution sol = lp::solve(model);
  ConfigResult out;
  if (!proven_optimal(sol, "configure_buffers_milp", /*infeasible_ok=*/true)) {
    return out;
  }
  out.feasible = true;
  out.xi = sol.values[static_cast<std::size_t>(xi_var)];
  out.steps.resize(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    out.steps[b] = static_cast<int>(
        std::lround(sol.values[static_cast<std::size_t>(s_var[b])]));
  }
  return out;
}

std::vector<double> exact_milp_bounds(
    const std::vector<std::vector<double>>& delta, double yield) {
  const std::size_t m = delta.size();
  if (m == 0) return {};
  const std::size_t n_pairs = delta.front().size();

  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const auto& row : delta) {
    for (double v : row) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  const double big = (hi - lo) + 1.0;

  lp::Model model;
  std::vector<int> lambda_var(n_pairs);
  for (std::size_t p = 0; p < n_pairs; ++p) {
    lambda_var[p] =
        model.add_continuous(lo - 1.0, hi + 1.0, 1.0, "l" + std::to_string(p));
  }
  std::vector<int> y_var(m);
  for (std::size_t k = 0; k < m; ++k) {
    y_var[k] = model.add_binary(0.0, "y" + std::to_string(k));
  }
  // (19): lambda_p - delta[k][p] >= M(y_k - 1).
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t p = 0; p < n_pairs; ++p) {
      model.add_constraint({{lambda_var[p], 1.0}, {y_var[k], -big}},
                           lp::Sense::kGreaterEqual, delta[k][p] - big);
    }
  }
  // (20): sum y_k >= Y*M.
  std::vector<lp::Term> cover;
  for (std::size_t k = 0; k < m; ++k) cover.push_back({y_var[k], 1.0});
  model.add_constraint(std::move(cover), lp::Sense::kGreaterEqual,
                       std::ceil(yield * static_cast<double>(m)));

  const lp::Solution sol = lp::solve(model);
  (void)proven_optimal(sol, "exact_milp_bounds", /*infeasible_ok=*/false);
  std::vector<double> lambda(n_pairs);
  for (std::size_t p = 0; p < n_pairs; ++p) {
    lambda[p] = sol.values[static_cast<std::size_t>(lambda_var[p])];
  }
  return lambda;
}

}  // namespace effitest::core
