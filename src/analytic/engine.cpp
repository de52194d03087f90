#include "analytic/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "core/difference_system.hpp"
#include "parallel/deterministic_for.hpp"
#include "stats/distributions.hpp"

namespace effitest::analytic {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -kInf;

using timing::CanonicalDelay;

/// Canonical form of one pair's true max delay (max over near-critical
/// alternatives — the quantity the pass rule tests).
[[nodiscard]] CanonicalDelay pair_form(const timing::MonitoredPair& p) {
  std::vector<CanonicalDelay> alts;
  alts.reserve(p.max_alts.size());
  for (const timing::DelayForm& f : p.max_alts) {
    alts.push_back(timing::to_canonical(f));
  }
  return timing::statistical_max(alts);
}

/// Scale a canonical form by 1/k (cycle ratio).
[[nodiscard]] CanonicalDelay scale_form(CanonicalDelay f, double inv_k) {
  f.mean *= inv_k;
  for (auto& [idx, w] : f.loading) w *= inv_k;
  f.indep_var *= inv_k * inv_k;
  return f;
}

/// P(f > acc) under the joint Gaussian of two canonical forms — the Clark
/// tie probability the criticality fold accumulates.
[[nodiscard]] double tie_probability(const CanonicalDelay& acc,
                                     const CanonicalDelay& f) {
  const double theta2 = std::max(
      acc.variance() + f.variance() - 2.0 * timing::canonical_cov(acc, f), 0.0);
  const double theta = std::sqrt(theta2);
  if (theta < 1e-12) return f.mean > acc.mean ? 1.0 : 0.0;
  return stats::normal_cdf((f.mean - acc.mean) / theta);
}

/// Buffer range [l, u] per contracted-graph node (node 0 is pinned at 0).
[[nodiscard]] std::pair<std::vector<double>, std::vector<double>> node_ranges(
    const core::Problem& problem) {
  std::vector<double> lo(problem.num_buffers() + 1, 0.0), up(lo);
  for (std::size_t b = 0; b < problem.num_buffers(); ++b) {
    lo[b + 1] = problem.buffers()[b].r;
    up[b + 1] = problem.buffers()[b].r + problem.buffers()[b].tau;
  }
  return {std::move(lo), std::move(up)};
}

/// One merged delay edge of the contracted graph: dst node -> src node.
struct Edge {
  int from = 0;  ///< node of the pair's destination buffer (0 = unbuffered)
  int to = 0;    ///< node of the pair's source buffer
  CanonicalDelay delay;        ///< statistical max over parallel pairs
  std::size_t dominant = 0;    ///< pair index with the largest mean delay
  double dominant_mean = kNegInf;
  bool init = false;
};

/// DP cell: best (statistical max) walk score reaching a node, plus the
/// argmax-by-mean predecessor for the criticality traceback.
struct State {
  CanonicalDelay form;
  bool valid = false;
  int pred_node = -1;
  /// >= 0: dominant pair of the delay edge taken; -1: range-edge closure.
  long long pred_pair = -1;
  double best_mean = kNegInf;
};

void merge_state(State& st, const CanonicalDelay& cand, int pred_node,
                 long long pred_pair) {
  if (!st.valid) {
    st.form = cand;
    st.valid = true;
    st.pred_node = pred_node;
    st.pred_pair = pred_pair;
    st.best_mean = cand.mean;
    return;
  }
  if (cand.mean > st.best_mean) {
    st.pred_node = pred_node;
    st.pred_pair = pred_pair;
    st.best_mean = cand.mean;
  }
  st.form = timing::canonical_max(st.form, cand);
}

/// Range-edge closure at one DP level: hop src -> node 0 (score +l_src),
/// then node 0 -> any buffer c (score -u_c). One pass of each suffices —
/// the range edges form a star at node 0 and a repeated 0 -> c -> 0 hop
/// costs l_c - u_c <= 0, so it never improves a max walk.
void range_closure(std::vector<State>& level, const std::vector<double>& lo,
                   const std::vector<double>& up) {
  const std::size_t n = level.size();
  for (std::size_t b = 1; b < n; ++b) {
    if (!level[b].valid) continue;
    merge_state(level[0], timing::canonical_shift(level[b].form, lo[b]),
                static_cast<int>(b), -1);
  }
  if (!level[0].valid) return;
  for (std::size_t c = 1; c < n; ++c) {
    merge_state(level[c], timing::canonical_shift(level[0].form, -up[c]), 0,
                -1);
  }
}

}  // namespace

TunedPeriodAnalysis analyze_tuned_period(const core::Problem& problem) {
  const timing::CircuitModel& model = problem.model();
  const std::size_t np = model.num_pairs();
  const std::size_t nb = problem.num_buffers();
  const std::size_t n = nb + 1;  // node 0 = all unbuffered registers (x = 0)
  // Every simple cycle of the contracted graph has at most n delay edges.
  const int max_k = static_cast<int>(n);

  const auto [lo, up] = node_ranges(problem);

  TunedPeriodAnalysis out;
  out.untuned = timing::ssta_required_period(model);
  out.pair_criticality.assign(np, 0.0);

  // Merge parallel pair edges per contracted-graph arc dst -> src in a
  // dense table, then keep the occupied cells in (from, to) order.
  std::vector<Edge> edges(n * n);
  for (std::size_t p = 0; p < np; ++p) {
    const int from = problem.dst_buffer(p) + 1;  // -1 (unbuffered) -> node 0
    const int to = problem.src_buffer(p) + 1;
    const CanonicalDelay d = pair_form(model.pairs()[p]);
    Edge& e = edges[static_cast<std::size_t>(from) * n + to];
    e.from = from;
    e.to = to;
    e.delay = e.init ? timing::canonical_max(e.delay, d) : d;
    e.init = true;
    if (d.mean > e.dominant_mean) {
      e.dominant = p;
      e.dominant_mean = d.mean;
    }
  }
  std::erase_if(edges, [](const Edge& e) { return !e.init; });

  // Candidate cycles. The promoted static background contracts into a
  // node-0 self-loop with no slack: one merged candidate.
  if (model.num_static_pairs() > 0) {
    std::vector<CanonicalDelay> statics;
    statics.reserve(model.num_static_pairs());
    for (const timing::DelayForm& f : model.static_forms()) {
      statics.push_back(timing::to_canonical(f));
    }
    CandidateConstraint c;
    c.period = timing::statistical_max(statics);
    c.num_edges = 1;
    c.is_static = true;
    out.candidates.push_back(std::move(c));
  }

  // Depth-limited DP from every start node: level[k][v] = statistical max
  // over walks start -> v with exactly k delay edges (range hops free) of
  // (sum of delays - range slack). A walk closing at the start with k >= 1
  // edges is a candidate cycle requiring T >= score / k.
  std::map<std::vector<std::size_t>, std::size_t> seen_cycles;
  for (std::size_t start = 0; start < n; ++start) {
    std::vector<std::vector<State>> level(
        static_cast<std::size_t>(max_k) + 1, std::vector<State>(n));
    level[0][start].valid = true;  // zero form
    range_closure(level[0], lo, up);
    for (int k = 1; k <= max_k; ++k) {
      for (const Edge& e : edges) {
        const State& prev = level[k - 1][static_cast<std::size_t>(e.from)];
        if (!prev.valid) continue;
        merge_state(level[k][static_cast<std::size_t>(e.to)],
                    timing::canonical_sum(prev.form, e.delay), e.from,
                    static_cast<long long>(e.dominant));
      }
      range_closure(level[k], lo, up);
      const State& back = level[k][start];
      if (!back.valid) continue;

      // Traceback the argmax-by-mean cycle for criticality attribution.
      std::vector<std::size_t> cycle_pairs;
      int node = static_cast<int>(start);
      int kk = k;
      bool ok = true;
      for (std::size_t guard = 0; kk > 0 || node != static_cast<int>(start);
           ++guard) {
        if (guard > 4 * n * static_cast<std::size_t>(max_k) + 8) {
          ok = false;
          break;
        }
        const State& st = level[static_cast<std::size_t>(kk)]
                               [static_cast<std::size_t>(node)];
        if (st.pred_pair >= 0) {
          cycle_pairs.push_back(static_cast<std::size_t>(st.pred_pair));
          --kk;
        }
        node = st.pred_node;
      }
      if (!ok) cycle_pairs.clear();
      std::sort(cycle_pairs.begin(), cycle_pairs.end());

      // The same simple cycle is reachable from each of its nodes; keep the
      // tightest form per pair multiset.
      const CanonicalDelay period =
          scale_form(back.form, 1.0 / static_cast<double>(k));
      auto [it, inserted] =
          seen_cycles.try_emplace(cycle_pairs, out.candidates.size());
      if (inserted) {
        CandidateConstraint c;
        c.period = period;
        c.pairs = cycle_pairs;
        c.num_edges = k;
        out.candidates.push_back(std::move(c));
      } else if (period.mean > out.candidates[it->second].period.mean) {
        out.candidates[it->second].period = period;
        out.candidates[it->second].num_edges = k;
      }
    }
  }

  if (out.candidates.empty()) {
    throw std::invalid_argument(
        "analyze_tuned_period: no constraint cycle (disconnected tuning "
        "graph)");
  }

  // Criticality fold: largest mean first; each new candidate takes the tie
  // probability of beating the running max, previous candidates keep the
  // complement. Masses sum to 1 by construction.
  std::stable_sort(out.candidates.begin(), out.candidates.end(),
                   [](const CandidateConstraint& a,
                      const CandidateConstraint& b) {
                     return a.period.mean > b.period.mean;
                   });
  CanonicalDelay acc = out.candidates.front().period;
  out.candidates.front().criticality = 1.0;
  for (std::size_t i = 1; i < out.candidates.size(); ++i) {
    const CanonicalDelay& f = out.candidates[i].period;
    if (f.mean + 4.5 * f.sigma() < acc.mean - 4.5 * acc.sigma()) {
      out.candidates[i].criticality = 0.0;
      continue;
    }
    const double p = tie_probability(acc, f);
    for (std::size_t j = 0; j < i; ++j) {
      out.candidates[j].criticality *= 1.0 - p;
    }
    out.candidates[i].criticality = p;
    acc = timing::canonical_max(acc, f);
  }
  out.tuned = acc;

  // Attribute each candidate's mass to the register pairs of its cycle.
  for (const CandidateConstraint& c : out.candidates) {
    if (c.is_static) {
      out.static_criticality += c.criticality;
      continue;
    }
    if (c.pairs.empty()) continue;
    const double share =
        c.criticality / static_cast<double>(c.pairs.size());
    for (std::size_t p : c.pairs) out.pair_criticality[p] += share;
  }
  return out;
}

double min_feasible_period(const core::Problem& problem,
                           const timing::Chip& chip, double* untuned) {
  const std::size_t np = problem.model().num_pairs();
  const std::size_t n = problem.num_buffers() + 1;
  const auto [lo_x, up_x] = node_ranges(problem);

  // Merge parallel pair edges: only the largest sampled delay binds
  // (x_src - x_dst <= T - D, stored as the bound -D).
  core::BoundTable table(n);
  for (std::size_t p = 0; p < np; ++p) {
    table.tighten(problem.dst_buffer(p) + 1, problem.src_buffer(p) + 1,
                  -chip.max_delay[p]);
  }
  // Delay edges (weight T - D) first, then the range edges 0 -> b (u_b)
  // and b -> 0 (-l_b).
  core::DifferenceSystem system(n);
  std::vector<double> delay;
  double lower = 0.0;
  for (const double d : chip.static_delay) lower = std::max(lower, d);
  double worst = lower;  // the untuned required period
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      const double d = -table.hard[from * n + to];
      if (d == -kInf) continue;
      worst = std::max(worst, d);
      delay.push_back(d);
      system.edges.push_back(
          {static_cast<int>(from), static_cast<int>(to), 0.0});
      // Exact single-edge bound: the cycle src -> 0 -> dst -> src requires
      // T >= D + l_src - u_dst (zero slack on a self-loop).
      lower = std::max(lower, from == to ? d : d + lo_x[to] - up_x[from]);
    }
  }
  if (untuned != nullptr) *untuned = worst;
  if (delay.empty()) return lower;
  for (int b = 1; b < static_cast<int>(n); ++b) {
    system.edges.push_back({0, b, up_x[static_cast<std::size_t>(b)]});
    system.edges.push_back({b, 0, -lo_x[static_cast<std::size_t>(b)]});
  }

  // Cycle-ratio iteration: while a negative cycle exists at T, raise T to
  // that cycle's ratio (sum D - range slack) / #delay edges, the least T
  // that clears it. Each solve runs a hair above T, so a cycle whose ratio
  // is T itself (the one just cleared) cannot reappear as a rounding-
  // negative witness: every witness raises T, and there are finitely many
  // simple cycles. The answer is within that hair below the optimum.
  double period = lower;
  for (;;) {
    const double probe = period + 1e-12 * std::max(1.0, std::abs(period));
    for (std::size_t e = 0; e < delay.size(); ++e) {
      system.edges[e].weight = probe - delay[e];
    }
    if (system.solve()) return period;
    double sum = 0.0;
    int k = 0;
    for (const std::size_t e : system.witness()) {
      const bool is_delay = e < delay.size();
      sum += is_delay ? delay[e] : -system.edges[e].weight;
      k += is_delay ? 1 : 0;
    }
    const double ratio = sum / k;
    if (!(ratio > period)) return period;
    period = ratio;
  }
}

double McTunedPeriod::quantile(double q) const {
  if (periods.empty()) return 0.0;
  return stats::quantile(periods, q);
}

McTunedPeriod mc_tuned_period(const core::Problem& problem,
                              const McTunedOptions& options) {
  McTunedPeriod out;
  out.periods.assign(options.chips, 0.0);
  out.untuned.assign(options.chips, 0.0);
  parallel::ForOptions opts;
  opts.threads = options.threads;
  parallel::deterministic_for(
      options.chips, opts, options.seed,
      [&](std::size_t i, stats::Rng& rng) {
        thread_local timing::SampleWorkspace ws;
        const timing::Chip chip = problem.model().sample_chip(rng, ws);
        out.periods[i] = min_feasible_period(problem, chip, &out.untuned[i]);
      });
  if (out.periods.empty()) return out;
  out.mean = stats::mean(out.periods);
  out.sigma = stats::stddev(out.periods);
  return out;
}

}  // namespace effitest::analytic
