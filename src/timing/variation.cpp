#include "timing/variation.hpp"

#include <algorithm>
#include <cmath>

namespace effitest::timing {

void accumulate(SparseLoading& into, const SparseLoading& add) {
  SparseLoading out;
  out.reserve(into.size() + add.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < into.size() && j < add.size()) {
    if (into[i].first < add[j].first) {
      out.push_back(into[i++]);
    } else if (add[j].first < into[i].first) {
      out.push_back(add[j++]);
    } else {
      out.emplace_back(into[i].first, into[i].second + add[j].second);
      ++i;
      ++j;
    }
  }
  while (i < into.size()) out.push_back(into[i++]);
  while (j < add.size()) out.push_back(add[j++]);
  into = std::move(out);
}

double sparse_dot(const SparseLoading& a, const SparseLoading& b) {
  double acc = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (b[j].first < a[i].first) {
      ++j;
    } else {
      acc += a[i].second * b[j].second;
      ++i;
      ++j;
    }
  }
  return acc;
}

VariationModel::VariationModel(const netlist::CellLibrary& library)
    : library_(&library) {
  factors_per_param_ = 1;  // global
  for (int l = 1; l <= kGridLevels; ++l) {
    factors_per_param_ += static_cast<std::size_t>(1) << (2 * l);  // 4^l
  }
  num_factors_ = 3 * factors_per_param_;
  w_global_ = std::sqrt(kGlobalCorr);
  w_level_ =
      std::sqrt((1.0 - kGlobalCorr) / static_cast<double>(kGridLevels));
}

int VariationModel::cell_index(int level, netlist::Point pos) const {
  const int side = 1 << level;
  int cx = static_cast<int>(pos.x * side);
  int cy = static_cast<int>(pos.y * side);
  cx = std::clamp(cx, 0, side - 1);
  cy = std::clamp(cy, 0, side - 1);
  return cy * side + cx;
}

SparseLoading VariationModel::gate_loading(netlist::CellType type,
                                           netlist::Point pos) const {
  const netlist::CellTiming& t = library_->timing(type);
  if (t.nominal_delay_ps <= 0.0) return {};
  const double sens[3] = {t.sens_length, t.sens_tox, t.sens_vth};
  const double sigma[3] = {kSigmaLength, kSigmaTox, kSigmaVth};
  SparseLoading out;
  out.reserve(3 * static_cast<std::size_t>(kGridLevels + 1));
  for (int p = 0; p < 3; ++p) {
    // Delay deviation per unit of this parameter's factors (ps).
    const double scale = t.nominal_delay_ps * sens[p] * sigma[p];
    if (scale == 0.0) continue;
    const int base = p * static_cast<int>(factors_per_param_);
    out.emplace_back(base, scale * w_global_);
    int offset = 1;
    for (int l = 1; l <= kGridLevels; ++l) {
      out.emplace_back(base + offset + cell_index(l, pos), scale * w_level_);
      offset += 1 << (2 * l);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double VariationModel::mismatch_sigma(netlist::CellType type) const {
  return kMismatchFrac * systematic_sigma(type);
}

double VariationModel::systematic_sigma(netlist::CellType type) const {
  const netlist::CellTiming& t = library_->timing(type);
  const double v =
      t.sens_length * kSigmaLength * t.sens_length * kSigmaLength +
      t.sens_tox * kSigmaTox * t.sens_tox * kSigmaTox +
      t.sens_vth * kSigmaVth * t.sens_vth * kSigmaVth;
  return t.nominal_delay_ps * std::sqrt(v);
}

void VariationModel::sample_factors(stats::Rng& rng,
                                    std::vector<double>& out) const {
  out.resize(num_factors_);
  for (double& v : out) v = rng.normal();
}

}  // namespace effitest::timing
