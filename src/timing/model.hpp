#pragma once
// Statistical circuit timing model: the bridge between the structural world
// (netlist + STA) and the statistical machinery of EffiTest.
//
// For every monitored FF pair (a path p_ij in the paper's terminology —
// np of them in Table 1) the model carries:
//  * a first-order canonical delay form of the nominally-critical path
//    (mean + sparse loading over spatial variation factors + independent
//    mismatch variance) used for covariance, grouping, PCA and prediction;
//  * the full set of near-critical structural paths, used when sampling the
//    *true* delays of a simulated die (the tested quantity is the max);
//  * the shortest structural path (hold-time analysis, §3.5).
//
// Monitored pairs are exactly the FF pairs incident to a buffered flip-flop:
// their setup constraints involve tuning values x_i, so their delays are
// "required for buffer configuration" (column np). Remaining pairs are kept
// as static background: a pair whose delay cannot plausibly approach the
// clock period (mean + 6 sigma below a conservative threshold) is discarded
// from per-chip evaluation; any other non-tunable pair is promoted into the
// checked set.
//
// Sampling and the covariance fill do not walk those DelayForms. At the end
// of its constructor (after inflation) the model compiles one private,
// read-only form table: every form in sample_chip order (per pair its max
// alternatives, then its min form; after the pairs, the static forms), each
// as a mean, the precomputed sigma of its inflation deviate and ranges into
// three flat arrays (int32 loading indices, double loading weights, int32
// mismatch slots), plus per-pair form ranges and per-slot mismatch sigmas.
// The arrays are reserved at their exact sizes.
//
// One die kernel walks that table, at two widths. Each call samples up to
// `Lanes` dies, each on its own Rng. Die b draws its deviates in one order
// (factors, mismatch slots, then one inflation deviate per inflated form in
// table order, skipped forms included), stored lane-minor ([index][lane])
// in a LaneWorkspace. Each form is then accumulated for all lanes at once:
// mean + (sum w * z) in k-ascending order, then the mismatch terms, then
// the inflation deviate. One full-die walk reads every form of the die
// (per pair the max over its alternatives, then its min form; the static
// forms last): sample_chip runs it at one lane (its factors are sampled
// straight into the workspace), sample_chips at kLanes. Three readers run
// the kernel at kLanes, where the independent add chains hide the latency
// that bounds a single die's walk: sample_required_periods (T_d calibration
// reads the required period), sample_min_delays (hold sampling reads the
// min delays) and sample_chips (the post-tuning Monte-Carlo reference reads
// whole dies). Lane b's values and the position of rngs[b] equal
// sample_chip's on that Rng bit for bit at either width. A LaneWorkspace is
// an allocation cache of about (factors + slots) * lanes doubles. At kLanes
// keep one per loop body over a span of blocks, never per thread (no
// thread_local), so its memory is released when the loop ends.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "linalg/matrix.hpp"
#include "netlist/cell.hpp"
#include "netlist/netlist.hpp"
#include "stats/rng.hpp"
#include "timing/graph.hpp"
#include "timing/variation.hpp"

namespace effitest::timing {

/// First-order canonical delay form of one structural path.
struct DelayForm {
  double mean = 0.0;            ///< nominal delay (+ setup for max forms), ps
  SparseLoading loading;        ///< systematic factor loadings (ps per unit z)
  std::vector<int> mismatch_slots;  ///< sorted slot ids of contributing gates
  double mismatch_var = 0.0;    ///< total independent mismatch variance, ps^2
  double extra_indep_var = 0.0; ///< additional independent variance (Fig 7)

  [[nodiscard]] double variance() const {
    return sparse_dot(loading, loading) + mismatch_var + extra_indep_var;
  }
  [[nodiscard]] double sigma() const;
};

/// One monitored FF-pair path p_ij.
struct MonitoredPair {
  int id = -1;
  int src_ff = -1;
  int dst_ff = -1;
  std::vector<DelayForm> max_alts;   ///< all near-critical forms (truth = max)
  DelayForm min_form;                ///< shortest-path form (hold)

  /// Critical-path canonical form (+ setup): the first near-critical form.
  /// The model never keeps a pair without one.
  [[nodiscard]] const DelayForm& max_form() const { return max_alts.front(); }
};

/// True (sampled) delays of one simulated die.
struct Chip {
  /// Per monitored pair: true max delay (includes setup), ps.
  std::vector<double> max_delay;
  /// Per monitored pair: true min path delay (no hold adjustment), ps.
  std::vector<double> min_delay;
  /// True max delays of promoted non-tunable background pairs.
  std::vector<double> static_delay;
};

/// Dies sampled per lane-kernel call.
inline constexpr std::size_t kLanes = 8;
/// Lane-kernel calls per LaneWorkspace in the Monte-Carlo loops: spans of
/// 32 dies amortize the workspace and still give 4 workers dozens of spans
/// to share at the loops' sizes (2,000 and 1,000 dies).
inline constexpr std::size_t kLaneSpanBlocks = 4;

/// Lane-minor deviates and results of one die-kernel call (see the file
/// comment). Purely an allocation cache: sampled values never depend on it.
struct LaneWorkspace {
  std::vector<double> die_factors;  ///< one die's factors, before spreading
                                    ///< (unused at one lane)
  std::vector<double> factors;      ///< [factor][lane]
  std::vector<double> mismatch;     ///< [mismatch slot][lane]
  std::vector<double> inflation;    ///< [inflated form][lane]
  std::vector<double> min_delay;    ///< sample_min_delays' [pair][lane]
};
/// sample_chip's workspace is the kernel's at one lane. Keep one per worker
/// when sampling in a loop.
using SampleWorkspace = LaneWorkspace;

/// Near-critical enumeration window: a pair's max alternatives are its
/// structural paths within this slack of its critical path, ps.
inline constexpr double kSlackWindowPs = 15.0;
/// Cap on a pair's max alternatives (the truth evaluation's path count).
inline constexpr std::size_t kMaxPathsPerPair = 4;
/// Background pairs with mean + 6 sigma below this fraction of the critical
/// delay are statically discarded.
inline constexpr double kStaticDiscardFraction = 0.6;

struct ModelOptions {
  /// Fig-7 knob: scale every path sigma by this factor by *adding
  /// independent variance*, leaving cross covariances untouched.
  double random_inflation = 1.0;
};

class CircuitModel {
 public:
  CircuitModel(const netlist::Netlist& netlist,
               const netlist::CellLibrary& library,
               std::vector<int> buffered_ffs, ModelOptions options = {});

  [[nodiscard]] const std::vector<MonitoredPair>& pairs() const {
    return pairs_;
  }
  [[nodiscard]] std::size_t num_pairs() const { return pairs_.size(); }
  [[nodiscard]] const std::vector<int>& buffered_ffs() const {
    return buffered_ffs_;
  }
  /// Buffer index of an FF cell id, or -1 when the FF carries no buffer.
  [[nodiscard]] int buffer_index(int ff) const;

  [[nodiscard]] const ModelOptions& options() const { return options_; }
  [[nodiscard]] double setup_time() const { return setup_time_; }
  [[nodiscard]] double hold_time() const { return hold_time_; }
  /// Nominal critical delay (max monitored mean, includes setup), ps.
  [[nodiscard]] double nominal_critical_delay() const { return critical_; }

  /// Prior means of monitored max delays (paper's mu vector).
  [[nodiscard]] std::vector<double> max_means() const;
  /// Prior sigmas of monitored max delays.
  [[nodiscard]] std::vector<double> max_sigmas() const;
  /// Joint covariance of monitored max delays (paper's Sigma). The fill is
  /// fanned out over the shared pool (`threads` workers; 0 = pool width,
  /// 1 = serial); every cell is a pure function of the model, so the matrix
  /// is bit-identical for any value. Each cell equals max_cov(i, j) bit for
  /// bit: it gathers the form table's entries of j against row i scattered
  /// into dense scratch instead of merging two sorted lists.
  [[nodiscard]] linalg::Matrix max_covariance(std::size_t threads = 0) const;

  /// Covariance between two monitored pairs' max forms (a sorted merge of
  /// their loadings and mismatch slots; the reference for max_covariance).
  [[nodiscard]] double max_cov(std::size_t i, std::size_t j) const;

  /// Sample the true delays of one die.
  [[nodiscard]] Chip sample_chip(stats::Rng& rng) const;

  /// Same draws, same values, reusing the caller's workspace buffers.
  [[nodiscard]] Chip sample_chip(stats::Rng& rng, SampleWorkspace& ws) const;

  /// Full dies of rngs.size() <= kLanes streams (lane kernel): chips[b]
  /// receives the die sampled on rngs[b], bit for bit sample_chip's, and
  /// rngs[b] advances exactly as sample_chip advances it. chips.size() must
  /// equal rngs.size(); Chips of the right sizes are reused without
  /// allocating.
  void sample_chips(std::span<stats::Rng> rngs, LaneWorkspace& ws,
                    std::span<Chip> chips) const;

  /// Untuned required periods of rngs.size() <= kLanes dies (lane kernel):
  /// entry b is the max over the monitored and promoted-static max delays
  /// of the die sampled on rngs[b], bit for bit sample_chip's values, and
  /// rngs[b] advances exactly as sample_chip advances it (unused inflation
  /// draws are made and discarded). Entries past rngs.size() are
  /// unspecified.
  [[nodiscard]] std::array<double, kLanes> sample_required_periods(
      std::span<stats::Rng> rngs, LaneWorkspace& ws) const;

  /// Min (hold) path delays of rngs.size() <= kLanes dies (lane kernel),
  /// with the streams of sample_required_periods: entry p * kLanes + b of
  /// the result (a view of ws.min_delay) is pair p's min delay on die b.
  /// The max and static evaluations are skipped.
  [[nodiscard]] std::span<const double> sample_min_delays(
      std::span<stats::Rng> rngs, LaneWorkspace& ws) const;

  /// Number of promoted (checked but non-tunable) background pairs.
  [[nodiscard]] std::size_t num_static_pairs() const {
    return static_forms_.size();
  }
  /// Canonical forms of the promoted background pairs (setup margin
  /// included, like the monitored max forms). Their registers carry no
  /// buffer, so their pass constraint has no tuning slack.
  [[nodiscard]] const std::vector<DelayForm>& static_forms() const {
    return static_forms_;
  }
  /// Count of background pairs discarded as statically safe.
  [[nodiscard]] std::size_t num_discarded_pairs() const {
    return discarded_pairs_;
  }

 private:
  [[nodiscard]] DelayForm build_form(const StructuralPath& path,
                                     double terminal_margin);
  [[nodiscard]] int mismatch_slot(int cell_id);
  /// Draws the deviates of rngs.size() <= Lanes dies into ws.
  template <std::size_t Lanes>
  void draw_deviates(std::span<stats::Rng> rngs, LaneWorkspace& ws) const;
  /// The full-die walk of sample_chip (Lanes = 1) and sample_chips
  /// (Lanes = kLanes): chips[b] receives the die sampled on rngs[b].
  template <std::size_t Lanes>
  void sample_dies(std::span<stats::Rng> rngs, LaneWorkspace& ws,
                   std::span<Chip> chips) const;
  [[nodiscard]] double form_cov(const DelayForm& a, const DelayForm& b) const;
  void apply_inflation(DelayForm& f) const;
  void compile_form_table();

  /// The compiled form table (see the file comment).
  struct FormTable {
    struct Form {
      double mean = 0.0;
      double extra_sd = 0.0;  ///< sigma of the inflation deviate; 0 = none
      std::uint32_t load_begin = 0;
      std::uint32_t load_end = 0;
      std::uint32_t slot_begin = 0;
      std::uint32_t slot_end = 0;
    };
    std::vector<Form> forms;
    /// Pair p owns forms [pair_forms[p], pair_forms[p + 1]): its max
    /// alternatives, then its min form. The static forms follow
    /// pair_forms.back().
    std::vector<std::uint32_t> pair_forms;
    std::vector<std::int32_t> load_index;
    std::vector<double> load_weight;
    std::vector<std::int32_t> slots;
    std::vector<double> slot_sd;  ///< per mismatch slot: sqrt(variance)
    std::vector<double> inflation_sd;  ///< extra_sd of each inflated form

    /// Form f on all Lanes lanes into d: mean + (sum w * z), then the
    /// mismatch terms, then the inflation deviate. `inflated` counts the
    /// inflated forms walked so far (it indexes ws.inflation).
    template <std::size_t Lanes>
    void eval(const Form& f, const LaneWorkspace& ws, std::size_t& inflated,
              double* d) const;
  };

  const netlist::Netlist* netlist_;
  ModelOptions options_;
  VariationModel variation_;
  std::vector<int> buffered_ffs_;
  std::unordered_map<int, int> buffer_index_;
  std::vector<MonitoredPair> pairs_;
  std::vector<DelayForm> static_forms_;
  std::size_t discarded_pairs_ = 0;
  double setup_time_ = 0.0;
  double hold_time_ = 0.0;
  double critical_ = 0.0;

  // Mismatch bookkeeping: cell id -> slot, slot -> variance.
  std::unordered_map<int, int> slot_of_cell_;
  std::vector<double> slot_var_;

  FormTable table_;
};

}  // namespace effitest::timing
