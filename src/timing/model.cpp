#include "timing/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/kernels.hpp"

namespace effitest::timing {

double DelayForm::sigma() const { return std::sqrt(variance()); }

CircuitModel::CircuitModel(const netlist::Netlist& netlist,
                           const netlist::CellLibrary& library,
                           std::vector<int> buffered_ffs, ModelOptions options)
    : netlist_(&netlist),
      options_(options),
      variation_(options.variation, library),
      buffered_ffs_(std::move(buffered_ffs)) {
  if (options_.random_inflation < 1.0) {
    throw std::invalid_argument("random_inflation must be >= 1");
  }
  setup_time_ = library.dff_setup_ps();
  hold_time_ = library.dff_hold_ps();
  for (std::size_t i = 0; i < buffered_ffs_.size(); ++i) {
    const int ff = buffered_ffs_[i];
    if (netlist.cell(ff).type != netlist::CellType::kDff) {
      throw std::invalid_argument("buffered cell is not a flip-flop");
    }
    if (!buffer_index_.emplace(ff, static_cast<int>(i)).second) {
      throw std::invalid_argument("duplicate buffered flip-flop");
    }
  }

  // Pairs arrive in source order, so each source is swept at most once per
  // pass for its path queries.
  const TimingGraph graph(netlist, library);
  TimingGraph::ConeArrival cone;
  int swept = -1;
  const auto cone_of = [&](int src) -> const TimingGraph::ConeArrival& {
    if (std::exchange(swept, src) != src) graph.sweep(src, cone);
    return cone;
  };

  // Pass 1: build monitored pairs fully and keep background candidates
  // (nominal delay only) for the static check below.
  std::vector<PairDelay> background;
  double crit = 0.0;
  for (const PairDelay& pd : graph.all_pair_delays()) {
    const int s = pd.src_ff;
    const int t = pd.dst_ff;
    const bool src_buf = buffer_index_.contains(s);
    const bool dst_buf = buffer_index_.contains(t);
    crit = std::max(crit, pd.max_delay + setup_time_);
    if (!src_buf && !dst_buf) {
      background.push_back(pd);
      continue;
    }
    MonitoredPair p;
    p.id = static_cast<int>(pairs_.size());
    p.src_ff = s;
    p.dst_ff = t;
    p.src_buffered = src_buf;
    p.dst_buffered = dst_buf;
    const auto alts =
        graph.near_critical_paths(cone_of(s), s, t, options_.slack_window_ps,
                                  options_.max_paths_per_pair);
    if (alts.empty()) continue;
    for (const StructuralPath& sp : alts) {
      p.max_alts.push_back(build_form(sp, setup_time_));
    }
    p.max_form = p.max_alts.front();
    p.min_form = build_form(graph.min_path(cone_of(s), s, t), 0.0);
    pairs_.push_back(std::move(p));
  }
  critical_ = crit;

  // Pass 2: background pairs — discard statically safe ones, promote others.
  const double threshold = options_.static_discard_fraction * critical_;
  for (const PairDelay& c : background) {
    // Conservative sigma bound without path extraction: systematic fraction
    // of the mean (fully correlated gates) plus mismatch margin.
    const double mean = c.max_delay + setup_time_;
    const double sigma_bound = 0.2 * mean * options_.random_inflation;
    if (mean + 6.0 * sigma_bound < threshold) {
      ++discarded_pairs_;
      continue;
    }
    const auto paths = graph.near_critical_paths(
        cone_of(c.src_ff), c.src_ff, c.dst_ff, options_.slack_window_ps, 1);
    if (!paths.empty()) {
      static_forms_.push_back(build_form(paths.front(), setup_time_));
    }
  }

  // Inflation is applied after all forms exist (it needs base variances).
  if (options_.random_inflation > 1.0) {
    for (MonitoredPair& p : pairs_) {
      for (DelayForm& f : p.max_alts) apply_inflation(f);
      p.max_form = p.max_alts.front();
      apply_inflation(p.min_form);
    }
    for (DelayForm& f : static_forms_) apply_inflation(f);
  }
}

void CircuitModel::apply_inflation(DelayForm& f) const {
  const double k = options_.random_inflation;
  const double base = sparse_dot(f.loading, f.loading) + f.mismatch_var;
  f.extra_indep_var = (k * k - 1.0) * base;
}

int CircuitModel::mismatch_slot(int cell_id) {
  const auto it = slot_of_cell_.find(cell_id);
  if (it != slot_of_cell_.end()) return it->second;
  const int slot = static_cast<int>(slot_var_.size());
  const double s =
      variation_.mismatch_sigma(netlist_->cell(cell_id).type);
  slot_var_.push_back(s * s);
  slot_of_cell_.emplace(cell_id, slot);
  return slot;
}

DelayForm CircuitModel::build_form(const StructuralPath& path,
                                   double terminal_margin) {
  DelayForm f;
  f.mean = path.nominal_delay + terminal_margin;
  // The launching FF's clk->Q stage varies too.
  SparseLoading acc = variation_.gate_loading(
      netlist::CellType::kDff, netlist_->cell(path.src_ff).position);
  f.mismatch_slots.push_back(mismatch_slot(path.src_ff));
  f.mismatch_var = slot_var_[static_cast<std::size_t>(f.mismatch_slots.back())];
  for (int g : path.gates) {
    const netlist::Cell& cell = netlist_->cell(g);
    accumulate(acc, variation_.gate_loading(cell.type, cell.position));
    const int slot = mismatch_slot(g);
    f.mismatch_slots.push_back(slot);
    f.mismatch_var += slot_var_[static_cast<std::size_t>(slot)];
  }
  std::sort(f.mismatch_slots.begin(), f.mismatch_slots.end());
  f.loading = std::move(acc);
  return f;
}

int CircuitModel::buffer_index(int ff) const {
  const auto it = buffer_index_.find(ff);
  return it == buffer_index_.end() ? -1 : it->second;
}

std::vector<double> CircuitModel::max_means() const {
  std::vector<double> out(pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i) out[i] = pairs_[i].max_form.mean;
  return out;
}

std::vector<double> CircuitModel::max_sigmas() const {
  std::vector<double> out(pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    out[i] = pairs_[i].max_form.sigma();
  }
  return out;
}

double CircuitModel::form_cov(const DelayForm& a, const DelayForm& b) const {
  double cov = sparse_dot(a.loading, b.loading);
  // Shared-gate mismatch (paths reusing trunk gates are correlated beyond
  // the spatial factors).
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.mismatch_slots.size() && j < b.mismatch_slots.size()) {
    if (a.mismatch_slots[i] < b.mismatch_slots[j]) {
      ++i;
    } else if (b.mismatch_slots[j] < a.mismatch_slots[i]) {
      ++j;
    } else {
      cov += slot_var_[static_cast<std::size_t>(a.mismatch_slots[i])];
      ++i;
      ++j;
    }
  }
  return cov;
}

double CircuitModel::max_cov(std::size_t i, std::size_t j) const {
  double cov = form_cov(pairs_[i].max_form, pairs_[j].max_form);
  if (i == j) cov += pairs_[i].max_form.extra_indep_var;
  return cov;
}

linalg::Matrix CircuitModel::max_covariance(std::size_t threads) const {
  const std::size_t n = pairs_.size();
  linalg::Matrix cov(n, n);
  // Tiled upper-triangle fill through the kernel layer: tiles of the
  // triangle fan out over the shared pool and each tile mirrors its block
  // locally (better write locality than the former long-stride per-row
  // mirroring). Every cell is a pure function of the model, so the matrix
  // is bit-identical for any worker count. Small matrices stay serial —
  // the per-cell work is too cheap to amortize scheduling below ~256 rows.
  linalg::kernels::symmetric_fill(
      cov, linalg::kernels::KernelOptions{threads}, /*serial_below=*/256,
      [&](std::size_t i, std::size_t j) { return max_cov(i, j); });
  return cov;
}

void CircuitModel::draw_deviates(stats::Rng& rng, SampleWorkspace& ws) const {
  variation_.sample_factors(rng, ws.factors);
  ws.mismatch.resize(slot_var_.size());
  for (std::size_t s = 0; s < slot_var_.size(); ++s) {
    ws.mismatch[s] = rng.normal(0.0, std::sqrt(slot_var_[s]));
  }
}

double CircuitModel::eval_form(const DelayForm& f, const SampleWorkspace& ws,
                               stats::Rng& rng) const {
  double d = f.mean + sparse_apply(f.loading, ws.factors);
  // Mismatch slots are sorted but may repeat across forms; sum directly.
  for (int slot : f.mismatch_slots) {
    d += ws.mismatch[static_cast<std::size_t>(slot)];
  }
  if (f.extra_indep_var > 0.0) {
    d += rng.normal(0.0, std::sqrt(f.extra_indep_var));
  }
  return d;
}

void CircuitModel::discard_form_draw(const DelayForm& f,
                                     stats::Rng& rng) const {
  // Keep the stream aligned with a full sample_chip when the evaluation
  // itself is skipped: under the Fig-7 inflation every form consumes one
  // independent deviate in evaluation order.
  if (f.extra_indep_var > 0.0) (void)rng.normal();
}

Chip CircuitModel::sample_chip(stats::Rng& rng) const {
  SampleWorkspace ws;
  return sample_chip(rng, ws);
}

Chip CircuitModel::sample_chip(stats::Rng& rng, SampleWorkspace& ws) const {
  draw_deviates(rng, ws);
  Chip chip;
  chip.max_delay.resize(pairs_.size());
  chip.min_delay.resize(pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    double worst = -std::numeric_limits<double>::infinity();
    for (const DelayForm& f : pairs_[i].max_alts) {
      worst = std::max(worst, eval_form(f, ws, rng));
    }
    chip.max_delay[i] = worst;
    chip.min_delay[i] = eval_form(pairs_[i].min_form, ws, rng);
  }
  chip.static_delay.resize(static_forms_.size());
  for (std::size_t i = 0; i < static_forms_.size(); ++i) {
    chip.static_delay[i] = eval_form(static_forms_[i], ws, rng);
  }
  return chip;
}

double CircuitModel::sample_required_period(stats::Rng& rng,
                                            SampleWorkspace& ws) const {
  draw_deviates(rng, ws);
  double worst = 0.0;
  for (const MonitoredPair& pair : pairs_) {
    for (const DelayForm& f : pair.max_alts) {
      worst = std::max(worst, eval_form(f, ws, rng));
    }
    discard_form_draw(pair.min_form, rng);
  }
  for (const DelayForm& f : static_forms_) {
    worst = std::max(worst, eval_form(f, ws, rng));
  }
  return worst;
}

void CircuitModel::sample_min_delays(stats::Rng& rng, SampleWorkspace& ws,
                                     std::vector<double>& min_out) const {
  draw_deviates(rng, ws);
  min_out.resize(pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    for (const DelayForm& f : pairs_[i].max_alts) {
      discard_form_draw(f, rng);
    }
    min_out[i] = eval_form(pairs_[i].min_form, ws, rng);
  }
  for (const DelayForm& f : static_forms_) discard_form_draw(f, rng);
}

}  // namespace effitest::timing
