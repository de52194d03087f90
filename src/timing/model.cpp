#include "timing/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/kernels.hpp"

namespace effitest::timing {

double DelayForm::sigma() const { return std::sqrt(variance()); }

CircuitModel::CircuitModel(const netlist::Netlist& netlist,
                           const netlist::CellLibrary& library,
                           std::vector<int> buffered_ffs, ModelOptions options)
    : netlist_(&netlist),
      options_(options),
      variation_(library),
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
    crit = std::max(crit, pd.max_delay + setup_time_);
    if (!buffer_index_.contains(s) && !buffer_index_.contains(t)) {
      background.push_back(pd);
      continue;
    }
    MonitoredPair p;
    p.id = static_cast<int>(pairs_.size());
    p.src_ff = s;
    p.dst_ff = t;
    const auto alts =
        graph.near_critical_paths(cone_of(s), s, t, kSlackWindowPs,
                                  kMaxPathsPerPair);
    if (alts.empty()) continue;
    p.max_alts.reserve(alts.size());
    for (const StructuralPath& sp : alts) {
      p.max_alts.push_back(build_form(sp, setup_time_));
    }
    p.min_form = build_form(graph.min_path(cone_of(s), s, t), 0.0);
    pairs_.push_back(std::move(p));
  }
  critical_ = crit;

  // Pass 2: background pairs — discard statically safe ones, promote others.
  const double threshold = kStaticDiscardFraction * critical_;
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
        cone_of(c.src_ff), c.src_ff, c.dst_ff, kSlackWindowPs, 1);
    if (!paths.empty()) {
      static_forms_.push_back(build_form(paths.front(), setup_time_));
    }
  }

  // Inflation is applied after all forms exist (it needs base variances).
  if (options_.random_inflation > 1.0) {
    for (MonitoredPair& p : pairs_) {
      for (DelayForm& f : p.max_alts) apply_inflation(f);
      apply_inflation(p.min_form);
    }
    for (DelayForm& f : static_forms_) apply_inflation(f);
  }
  compile_form_table();
}

void CircuitModel::compile_form_table() {
  std::size_t forms = static_forms_.size();
  std::size_t loads = 0;
  std::size_t slots = 0;
  const auto count = [&](const DelayForm& f) {
    loads += f.loading.size();
    slots += f.mismatch_slots.size();
  };
  for (const MonitoredPair& p : pairs_) {
    forms += p.max_alts.size() + 1;
    for (const DelayForm& f : p.max_alts) count(f);
    count(p.min_form);
  }
  for (const DelayForm& f : static_forms_) count(f);
  if (std::max(loads, slots) > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("CircuitModel: form table exceeds 32-bit ranges");
  }

  FormTable& t = table_;
  t.forms.reserve(forms);
  t.pair_forms.reserve(pairs_.size() + 1);
  t.load_index.reserve(loads);
  t.load_weight.reserve(loads);
  t.slots.reserve(slots);
  const auto append = [&t](const DelayForm& f) {
    FormTable::Form row;
    row.mean = f.mean;
    row.extra_sd = f.extra_indep_var > 0.0 ? std::sqrt(f.extra_indep_var) : 0.0;
    row.load_begin = static_cast<std::uint32_t>(t.load_index.size());
    for (const auto& [index, weight] : f.loading) {
      t.load_index.push_back(index);
      t.load_weight.push_back(weight);
    }
    row.load_end = static_cast<std::uint32_t>(t.load_index.size());
    row.slot_begin = static_cast<std::uint32_t>(t.slots.size());
    t.slots.insert(t.slots.end(), f.mismatch_slots.begin(),
                   f.mismatch_slots.end());
    row.slot_end = static_cast<std::uint32_t>(t.slots.size());
    t.forms.push_back(row);
  };
  for (const MonitoredPair& p : pairs_) {
    t.pair_forms.push_back(static_cast<std::uint32_t>(t.forms.size()));
    for (const DelayForm& f : p.max_alts) append(f);
    append(p.min_form);
  }
  t.pair_forms.push_back(static_cast<std::uint32_t>(t.forms.size()));
  for (const DelayForm& f : static_forms_) append(f);

  t.slot_sd.reserve(slot_var_.size());
  for (double v : slot_var_) t.slot_sd.push_back(std::sqrt(v));
  for (const FormTable::Form& f : t.forms) {
    if (f.extra_sd > 0.0) t.inflation_sd.push_back(f.extra_sd);
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
  f.mismatch_slots.reserve(path.gates.size() + 1);
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
  // accumulate() reserves for the worst case; the form lives as long as the
  // model, so keep only what it holds.
  acc.shrink_to_fit();
  f.loading = std::move(acc);
  return f;
}

int CircuitModel::buffer_index(int ff) const {
  const auto it = buffer_index_.find(ff);
  return it == buffer_index_.end() ? -1 : it->second;
}

std::vector<double> CircuitModel::max_means() const {
  std::vector<double> out(pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    out[i] = pairs_[i].max_form().mean;
  }
  return out;
}

std::vector<double> CircuitModel::max_sigmas() const {
  std::vector<double> out(pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    out[i] = pairs_[i].max_form().sigma();
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
  double cov = form_cov(pairs_[i].max_form(), pairs_[j].max_form());
  if (i == j) cov += pairs_[i].max_form().extra_indep_var;
  return cov;
}

linalg::Matrix CircuitModel::max_covariance(std::size_t threads) const {
  const std::size_t n = pairs_.size();
  linalg::Matrix cov(n, n);
  // Tiled upper-triangle fill (linalg::kernels::symmetric_fill). Per tile
  // row, row i's critical form is scattered into dense scratch (weights by
  // factor, mismatch variances by slot) and each cell gathers pair j's
  // entries in j's stored order. An entry j does not share with i adds a
  // zero product, which is exact, so every cell is max_cov(i, j)'s merge
  // bit for bit -- and a pure function of the model, so the matrix is
  // bit-identical for any worker count. Small matrices stay serial: the
  // per-cell work is too cheap to amortize scheduling below ~256 rows.
  const FormTable& t = table_;
  const auto make_row = [&] {
    return [&, weight = std::vector<double>(variation_.num_factors()),
            var = std::vector<double>(slot_var_.size())](
               std::size_t i, std::size_t j0, std::span<double> dst) mutable {
      const FormTable::Form& a = t.forms[t.pair_forms[i]];
      const auto scatter = [&](bool set) {
        for (std::uint32_t k = a.load_begin; k < a.load_end; ++k) {
          const auto f = static_cast<std::size_t>(t.load_index[k]);
          weight[f] = set ? t.load_weight[k] : 0.0;
        }
        for (std::uint32_t k = a.slot_begin; k < a.slot_end; ++k) {
          const auto s = static_cast<std::size_t>(t.slots[k]);
          var[s] = set ? slot_var_[s] : 0.0;
        }
      };
      scatter(true);
      for (std::size_t c = 0; c < dst.size(); ++c) {
        const FormTable::Form& b = t.forms[t.pair_forms[j0 + c]];
        double v = 0.0;
        for (std::uint32_t k = b.load_begin; k < b.load_end; ++k) {
          v += weight[static_cast<std::size_t>(t.load_index[k])] *
               t.load_weight[k];
        }
        for (std::uint32_t k = b.slot_begin; k < b.slot_end; ++k) {
          v += var[static_cast<std::size_t>(t.slots[k])];
        }
        dst[c] = v;
      }
      if (j0 == i) dst[0] += pairs_[i].max_form().extra_indep_var;
      scatter(false);
    };
  };
  linalg::kernels::symmetric_fill(cov, threads, /*serial_below=*/256,
                                  make_row);
  return cov;
}

template <std::size_t Lanes>
void CircuitModel::draw_deviates(std::span<stats::Rng> rngs,
                                 LaneWorkspace& ws) const {
  if (rngs.size() > Lanes) {
    throw std::invalid_argument("CircuitModel: more dies than lanes");
  }
  const std::vector<double>& slot_sd = table_.slot_sd;
  const std::vector<double>& inflation_sd = table_.inflation_sd;
  if constexpr (Lanes > 1) ws.factors.resize(variation_.num_factors() * Lanes);
  ws.mismatch.resize(slot_sd.size() * Lanes);
  ws.inflation.resize(inflation_sd.size() * Lanes);
  for (std::size_t b = 0; b < rngs.size(); ++b) {
    stats::Rng& rng = rngs[b];
    if constexpr (Lanes == 1) {
      variation_.sample_factors(rng, ws.factors);
    } else {
      variation_.sample_factors(rng, ws.die_factors);
      for (std::size_t i = 0; i < ws.die_factors.size(); ++i) {
        ws.factors[i * Lanes + b] = ws.die_factors[i];
      }
    }
    for (std::size_t s = 0; s < slot_sd.size(); ++s) {
      ws.mismatch[s * Lanes + b] = rng.normal(0.0, slot_sd[s]);
    }
    for (std::size_t j = 0; j < inflation_sd.size(); ++j) {
      ws.inflation[j * Lanes + b] = rng.normal(0.0, inflation_sd[j]);
    }
  }
}

template <std::size_t Lanes>
void CircuitModel::FormTable::eval(const Form& f, const LaneWorkspace& ws,
                                   std::size_t& inflated, double* d) const {
  double acc[Lanes] = {};
  for (std::uint32_t k = f.load_begin; k < f.load_end; ++k) {
    const double w = load_weight[k];
    const double* z =
        ws.factors.data() + static_cast<std::size_t>(load_index[k]) * Lanes;
    for (std::size_t b = 0; b < Lanes; ++b) acc[b] += w * z[b];
  }
  for (std::size_t b = 0; b < Lanes; ++b) d[b] = f.mean + acc[b];
  // Mismatch slots are sorted but may repeat across forms; sum directly.
  for (std::uint32_t k = f.slot_begin; k < f.slot_end; ++k) {
    const double* m =
        ws.mismatch.data() + static_cast<std::size_t>(slots[k]) * Lanes;
    for (std::size_t b = 0; b < Lanes; ++b) d[b] += m[b];
  }
  if (f.extra_sd > 0.0) {
    const double* x = ws.inflation.data() + inflated++ * Lanes;
    for (std::size_t b = 0; b < Lanes; ++b) d[b] += x[b];
  }
}

Chip CircuitModel::sample_chip(stats::Rng& rng) const {
  SampleWorkspace ws;
  return sample_chip(rng, ws);
}

template <std::size_t Lanes>
void CircuitModel::sample_dies(std::span<stats::Rng> rngs, LaneWorkspace& ws,
                               std::span<Chip> chips) const {
  draw_deviates<Lanes>(rngs, ws);
  const FormTable& t = table_;
  const std::size_t np = pairs_.size();
  const std::size_t n = Lanes == 1 ? 1 : chips.size();
  double* max_out[Lanes] = {};
  double* min_out[Lanes] = {};
  double* static_out[Lanes] = {};
  for (std::size_t b = 0; b < n; ++b) {
    chips[b].max_delay.resize(np);
    chips[b].min_delay.resize(np);
    chips[b].static_delay.resize(t.forms.size() - t.pair_forms.back());
    max_out[b] = chips[b].max_delay.data();
    min_out[b] = chips[b].min_delay.data();
    static_out[b] = chips[b].static_delay.data();
  }
  double d[Lanes] = {};
  std::size_t inflated = 0;
  std::size_t k = 0;
  for (std::size_t i = 0; i < np; ++i) {
    const std::size_t min_k = t.pair_forms[i + 1] - 1;
    double worst[Lanes];
    std::fill_n(worst, Lanes, -std::numeric_limits<double>::infinity());
    for (; k < min_k; ++k) {
      t.eval<Lanes>(t.forms[k], ws, inflated, d);
      for (std::size_t b = 0; b < Lanes; ++b) {
        worst[b] = std::max(worst[b], d[b]);
      }
    }
    t.eval<Lanes>(t.forms[k++], ws, inflated, d);
    for (std::size_t b = 0; b < n; ++b) {
      max_out[b][i] = worst[b];
      min_out[b][i] = d[b];
    }
  }
  for (std::size_t s = 0; k < t.forms.size(); ++k, ++s) {
    t.eval<Lanes>(t.forms[k], ws, inflated, d);
    for (std::size_t b = 0; b < n; ++b) static_out[b][s] = d[b];
  }
}

Chip CircuitModel::sample_chip(stats::Rng& rng, SampleWorkspace& ws) const {
  Chip chip;
  sample_dies<1>(std::span(&rng, 1), ws, std::span(&chip, 1));
  return chip;
}

void CircuitModel::sample_chips(std::span<stats::Rng> rngs, LaneWorkspace& ws,
                                std::span<Chip> chips) const {
  if (chips.size() != rngs.size()) {
    throw std::invalid_argument("CircuitModel: one Chip per die expected");
  }
  sample_dies<kLanes>(rngs, ws, chips);
}

std::array<double, kLanes> CircuitModel::sample_required_periods(
    std::span<stats::Rng> rngs, LaneWorkspace& ws) const {
  draw_deviates<kLanes>(rngs, ws);
  const FormTable& t = table_;
  std::array<double, kLanes> worst{};  // a period is at least 0.0
  double d[kLanes] = {};
  std::size_t inflated = 0;
  const auto fold = [&](const FormTable::Form& f) {
    t.eval<kLanes>(f, ws, inflated, d);
    for (std::size_t b = 0; b < kLanes; ++b) {
      worst[b] = std::max(worst[b], d[b]);
    }
  };
  std::size_t k = 0;
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    const std::size_t min_k = t.pair_forms[i + 1] - 1;
    for (; k < min_k; ++k) fold(t.forms[k]);
    if (t.forms[k++].extra_sd > 0.0) ++inflated;  // the skipped min form
  }
  for (; k < t.forms.size(); ++k) fold(t.forms[k]);
  return worst;
}

std::span<const double> CircuitModel::sample_min_delays(
    std::span<stats::Rng> rngs, LaneWorkspace& ws) const {
  draw_deviates<kLanes>(rngs, ws);
  const FormTable& t = table_;
  ws.min_delay.resize(pairs_.size() * kLanes);
  double d[kLanes] = {};
  std::size_t inflated = 0;
  std::size_t k = 0;
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    const std::size_t min_k = t.pair_forms[i + 1] - 1;
    for (; k < min_k; ++k) inflated += t.forms[k].extra_sd > 0.0 ? 1 : 0;
    t.eval<kLanes>(t.forms[k++], ws, inflated, d);
    std::copy_n(d, kLanes, ws.min_delay.begin() + i * kLanes);
  }
  return ws.min_delay;
}

}  // namespace effitest::timing
