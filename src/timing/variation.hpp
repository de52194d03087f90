#pragma once
// Spatially correlated process-variation model (hierarchical grid factors).
//
// The paper's setup (§4): the standard deviations of transistor length,
// oxide thickness and threshold voltage are 15.7%, 5.3% and 4.4% of nominal;
// the correlation of variations in side-by-side gates is 1 and the
// correlation due to global variations is 0.25.
//
// We realize this with the hierarchical grid model of the paper's reference
// [17] (Chang & Sapatnekar): for each parameter, a gate's deviation is a
// weighted sum of a global factor plus one factor per quad-tree level
// containing the gate's die position:
//
//   dP(g) = sigma_p * ( w0*Z_global + sum_l w_l * Z_{l, cell_l(g)} )
//
// with w0^2 = 0.25 (global correlation floor) and sum w^2 = 1, so two gates
// in the same finest cell (side-by-side) have parameter correlation exactly 1
// and distant gates exactly 0.25. Independent per-gate *delay* mismatch
// (kMismatchFrac) is modeled separately. The Fig.-7 enlarged-random-variation
// experiment turns ModelOptions::random_inflation (timing/model.hpp), which
// adds independent variance to every path, not this mismatch.
//
// Gate delay model (first order, library sensitivities s_p):
//   d(g) = d0 * (1 + sum_p s_p dP_p(g)) + mismatch(g).

#include <utility>
#include <vector>

#include "netlist/cell.hpp"
#include "netlist/netlist.hpp"
#include "stats/rng.hpp"

namespace effitest::timing {

/// §4 parameter sigmas as fractions of nominal: transistor length, oxide
/// thickness, threshold voltage.
inline constexpr double kSigmaLength = 0.157;
inline constexpr double kSigmaTox = 0.053;
inline constexpr double kSigmaVth = 0.044;
/// Parameter correlation between distant gates.
inline constexpr double kGlobalCorr = 0.25;
/// Quad-tree levels: 2x2, 4x4, 8x8.
inline constexpr int kGridLevels = 3;
/// Independent delay mismatch as a fraction of the gate's systematic delay
/// sigma (the paper's side-by-side correlation of 1 means this is small).
inline constexpr double kMismatchFrac = 0.10;

static_assert(kGridLevels >= 1 && kGridLevels <= 8);
static_assert(kGlobalCorr >= 0.0 && kGlobalCorr <= 1.0);

/// Sparse factor-loading vector: sorted (factor index, weight) pairs.
/// The delay deviation contributed is sum_i weight_i * z[factor_i] with
/// z ~ iid N(0,1).
using SparseLoading = std::vector<std::pair<int, double>>;

/// Merge-accumulate `add` into `into` (both sorted by factor index).
void accumulate(SparseLoading& into, const SparseLoading& add);

/// Dot product of two sorted sparse loadings.
[[nodiscard]] double sparse_dot(const SparseLoading& a, const SparseLoading& b);

class VariationModel {
 public:
  explicit VariationModel(const netlist::CellLibrary& library);

  /// Total number of N(0,1) spatial factors (3 parameters x grid factors).
  [[nodiscard]] std::size_t num_factors() const { return num_factors_; }

  /// Systematic loading of one gate instance: weights are in picoseconds of
  /// delay deviation per unit factor. Returned sorted by factor index.
  [[nodiscard]] SparseLoading gate_loading(netlist::CellType type,
                                           netlist::Point pos) const;

  /// Standard deviation (ps) of the gate's independent mismatch term.
  [[nodiscard]] double mismatch_sigma(netlist::CellType type) const;

  /// Systematic delay sigma (ps) of one isolated gate instance.
  [[nodiscard]] double systematic_sigma(netlist::CellType type) const;

  /// One draw of the global factor vector (iid standard normals) into a
  /// reusable buffer (resized to the factor count).
  void sample_factors(stats::Rng& rng, std::vector<double>& out) const;

 private:
  [[nodiscard]] int cell_index(int level, netlist::Point pos) const;

  const netlist::CellLibrary* library_;
  std::size_t factors_per_param_ = 0;
  std::size_t num_factors_ = 0;
  double w_global_ = 0.0;
  double w_level_ = 0.0;
};

}  // namespace effitest::timing
