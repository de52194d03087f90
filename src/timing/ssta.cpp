#include "timing/ssta.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/distributions.hpp"

namespace effitest::timing {

double CanonicalDelay::sigma() const { return std::sqrt(variance()); }

double CanonicalDelay::quantile(double q) const {
  return mean + stats::normal_quantile(q) * sigma();
}

double CanonicalDelay::cdf(double x) const {
  const double s = sigma();
  if (s < 1e-12) return x >= mean ? 1.0 : 0.0;
  return stats::normal_cdf((x - mean) / s);
}

CanonicalDelay to_canonical(const DelayForm& form) {
  CanonicalDelay d;
  d.mean = form.mean;
  d.loading = form.loading;
  d.indep_var = form.mismatch_var + form.extra_indep_var;
  return d;
}

double canonical_cov(const CanonicalDelay& a, const CanonicalDelay& b) {
  return sparse_dot(a.loading, b.loading);
}

CanonicalDelay canonical_sum(const CanonicalDelay& a, const CanonicalDelay& b) {
  CanonicalDelay out;
  out.mean = a.mean + b.mean;
  out.loading = a.loading;
  accumulate(out.loading, b.loading);
  out.indep_var = a.indep_var + b.indep_var;
  return out;
}

CanonicalDelay canonical_shift(CanonicalDelay a, double offset) {
  a.mean += offset;
  return a;
}

CanonicalDelay canonical_max(const CanonicalDelay& a, const CanonicalDelay& b) {
  const double va = a.variance();
  const double vb = b.variance();
  const double cov = canonical_cov(a, b);
  const double theta2 = std::max(va + vb - 2.0 * cov, 0.0);
  const double theta = std::sqrt(theta2);

  // Degenerate case: (nearly) perfectly correlated with equal variance —
  // the max is whichever has the larger mean.
  if (theta < 1e-12) {
    return a.mean >= b.mean ? a : b;
  }

  const double alpha = (a.mean - b.mean) / theta;
  const double phi_a = stats::normal_cdf(alpha);
  const double phi_b = 1.0 - phi_a;
  const double pdf = stats::normal_pdf(alpha);

  CanonicalDelay out;
  out.mean = a.mean * phi_a + b.mean * phi_b + theta * pdf;
  const double second_moment = (a.mean * a.mean + va) * phi_a +
                               (b.mean * b.mean + vb) * phi_b +
                               (a.mean + b.mean) * theta * pdf;
  const double var = std::max(second_moment - out.mean * out.mean, 0.0);

  // Blend the loadings by the tie probability (standard canonical-form
  // reconstruction, ref. [17]); whatever variance the blended loadings do
  // not explain becomes an independent term.
  out.loading = a.loading;
  for (auto& [idx, w] : out.loading) w *= phi_a;
  SparseLoading scaled_b = b.loading;
  for (auto& [idx, w] : scaled_b) w *= phi_b;
  accumulate(out.loading, scaled_b);
  const double explained = sparse_dot(out.loading, out.loading);
  if (explained > var && explained > 0.0) {
    // Rescale so the total variance is matched exactly.
    const double scale = std::sqrt(var / explained);
    for (auto& [idx, w] : out.loading) w *= scale;
    out.indep_var = 0.0;
  } else {
    out.indep_var = var - explained;
  }
  return out;
}

CanonicalDelay statistical_max(std::span<const CanonicalDelay> forms) {
  if (forms.empty()) {
    throw std::invalid_argument("statistical_max: empty input");
  }
  std::vector<const CanonicalDelay*> order;
  order.reserve(forms.size());
  for (const CanonicalDelay& f : forms) order.push_back(&f);
  // Stable: forms of equal mean fold in input order, so appending forms
  // that the prune below skips cannot change the result.
  std::stable_sort(order.begin(), order.end(),
                   [](const CanonicalDelay* x, const CanonicalDelay* y) {
                     return x->mean > y->mean;
                   });
  CanonicalDelay acc = *order.front();
  for (std::size_t i = 1; i < order.size(); ++i) {
    // Skip forms that cannot plausibly define the max (4.5 sigma below).
    const CanonicalDelay& f = *order[i];
    if (f.mean + 4.5 * f.sigma() < acc.mean - 4.5 * acc.sigma()) continue;
    acc = canonical_max(acc, f);
  }
  return acc;
}

CanonicalDelay ssta_required_period(const CircuitModel& model) {
  std::vector<CanonicalDelay> forms;
  for (const MonitoredPair& p : model.pairs()) {
    for (const DelayForm& f : p.max_alts) forms.push_back(to_canonical(f));
  }
  for (const DelayForm& f : model.static_forms()) {
    forms.push_back(to_canonical(f));
  }
  if (forms.empty()) {
    throw std::invalid_argument("ssta_required_period: model has no forms");
  }
  return statistical_max(forms);
}

}  // namespace effitest::timing
