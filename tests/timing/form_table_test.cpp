// Oracles for CircuitModel's compiled form table: die sampling and the
// covariance fill walk flat arrays, and must reproduce the per-DelayForm
// evaluation and the sorted-merge covariance bit for bit on every catalog
// circuit, nominal and under the Fig-7 inflation. The three lane kernels
// (required periods, min delays, whole dies) must reproduce sample_chip,
// die by die.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "netlist/generator.hpp"
#include "timing/model.hpp"

namespace effitest::timing {
namespace {

constexpr const char* kCatalog[] = {
    "s9234",     "s13207",    "s15850",       "s38584", "mem_ctrl",
    "usb_funct", "ac97_ctrl", "pci_bridge32", "s35932", "s38417"};
constexpr double kInflations[] = {1.0, 1.5};
constexpr std::uint64_t kSeeds[] = {11, 2016, 3001};

const netlist::CellLibrary& lib() {
  static const netlist::CellLibrary library = netlist::CellLibrary::standard();
  return library;
}

/// The per-DelayForm evaluation the form table replaced, kept verbatim.
double reference_eval(const DelayForm& f, const SampleWorkspace& ws,
                      stats::Rng& rng) {
  double systematic = 0.0;
  for (const auto& [idx, w] : f.loading) {
    systematic += w * ws.factors[static_cast<std::size_t>(idx)];
  }
  double d = f.mean + systematic;
  for (int slot : f.mismatch_slots) {
    d += ws.mismatch[static_cast<std::size_t>(slot)];
  }
  if (f.extra_indep_var > 0.0) {
    d += rng.normal(0.0, std::sqrt(f.extra_indep_var));
  }
  return d;
}

/// The former sample_chip body after its deviate draws.
Chip reference_chip(const CircuitModel& m, const SampleWorkspace& ws,
                    stats::Rng& rng) {
  Chip chip;
  for (const MonitoredPair& p : m.pairs()) {
    double worst = -std::numeric_limits<double>::infinity();
    for (const DelayForm& f : p.max_alts) {
      worst = std::max(worst, reference_eval(f, ws, rng));
    }
    chip.max_delay.push_back(worst);
    chip.min_delay.push_back(reference_eval(p.min_form, ws, rng));
  }
  for (const DelayForm& f : m.static_forms()) {
    chip.static_delay.push_back(reference_eval(f, ws, rng));
  }
  return chip;
}

void expect_bits_equal(const std::vector<double>& got,
                       const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << "[" << i << "]";
  }
}

/// Number of mismatch slots: every slot belongs to at least one form.
std::size_t slot_count(const CircuitModel& m) {
  int top = -1;
  const auto scan = [&top](const DelayForm& f) {
    for (int s : f.mismatch_slots) top = std::max(top, s);
  };
  for (const MonitoredPair& p : m.pairs()) {
    for (const DelayForm& f : p.max_alts) scan(f);
    scan(p.min_form);
  }
  for (const DelayForm& f : m.static_forms()) scan(f);
  return static_cast<std::size_t>(top + 1);
}

CircuitModel catalog_model(const netlist::GeneratedCircuit& c,
                           double inflation) {
  ModelOptions options;
  options.random_inflation = inflation;
  return CircuitModel(c.netlist, lib(), c.buffered_ffs, options);
}

/// Lane b of one call of each lane kernel over `seeds` against sample_chip
/// on its own Rng(seeds[b]): the required period (max over the monitored
/// and static max delays, from 0 like core::untuned_required_period), the
/// min delays and sample_chips' whole die bit for bit, and every rng at
/// sample_chip's next word. `dies` (kLanes Chips) is reused across calls,
/// so its Chips may hold an earlier call's dies.
void expect_lanes_match_sample_chip(const CircuitModel& m,
                                    std::span<const std::uint64_t> seeds,
                                    LaneWorkspace& lanes,
                                    std::vector<Chip>& dies) {
  std::vector<stats::Rng> period_rngs;
  std::vector<stats::Rng> min_rngs;
  std::vector<stats::Rng> chip_rngs;
  for (std::uint64_t seed : seeds) {
    period_rngs.emplace_back(seed);
    min_rngs.emplace_back(seed);
    chip_rngs.emplace_back(seed);
  }
  const std::array<double, kLanes> periods =
      m.sample_required_periods(period_rngs, lanes);
  const std::span<const double> min_delay =
      m.sample_min_delays(min_rngs, lanes);
  ASSERT_EQ(min_delay.size(), m.num_pairs() * kLanes);
  ASSERT_EQ(dies.size(), kLanes);
  m.sample_chips(chip_rngs, lanes, std::span(dies).first(seeds.size()));
  for (std::size_t b = 0; b < seeds.size(); ++b) {
    SCOPED_TRACE("lane " + std::to_string(b) + " of " +
                 std::to_string(seeds.size()));
    stats::Rng rng(seeds[b]);
    const Chip chip = m.sample_chip(rng);
    double period = 0.0;
    for (double d : chip.max_delay) period = std::max(period, d);
    for (double d : chip.static_delay) period = std::max(period, d);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(periods[b]),
              std::bit_cast<std::uint64_t>(period));
    std::vector<double> lane_min(m.num_pairs());
    for (std::size_t p = 0; p < lane_min.size(); ++p) {
      lane_min[p] = min_delay[p * kLanes + b];
    }
    expect_bits_equal(lane_min, chip.min_delay, "sample_min_delays");
    expect_bits_equal(dies[b].max_delay, chip.max_delay, "sample_chips max");
    expect_bits_equal(dies[b].min_delay, chip.min_delay, "sample_chips min");
    expect_bits_equal(dies[b].static_delay, chip.static_delay,
                      "sample_chips static");
    const std::uint64_t next = rng.engine()();
    ASSERT_EQ(period_rngs[b].engine()(), next);
    ASSERT_EQ(min_rngs[b].engine()(), next);
    ASSERT_EQ(chip_rngs[b].engine()(), next);
  }
}

TEST(FormTable, SamplersMatchPerFormEvaluationOnTheCatalog) {
  for (const char* name : kCatalog) {
    const auto c = netlist::generate_circuit(netlist::paper_benchmark_spec(name));
    for (double inflation : kInflations) {
      SCOPED_TRACE(std::string(name) + " @" + std::to_string(inflation));
      const CircuitModel m = catalog_model(c, inflation);
      const std::size_t slots = slot_count(m);
      for (std::uint64_t seed : kSeeds) {
        stats::Rng table_rng(seed);
        stats::Rng ref_rng(seed);
        SampleWorkspace ws;
        const Chip chip = m.sample_chip(table_rng, ws);

        // The factor deviates are re-drawn here. The mismatch deviates are
        // read back from the workspace (slot variances are private), after
        // skipping their draws.
        for (double z : ws.factors) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(ref_rng.normal()),
                    std::bit_cast<std::uint64_t>(z));
        }
        ASSERT_EQ(ws.mismatch.size(), slots);
        for (std::size_t s = 0; s < slots; ++s) (void)ref_rng.normal();
        const Chip ref = reference_chip(m, ws, ref_rng);
        expect_bits_equal(chip.max_delay, ref.max_delay, "max_delay");
        expect_bits_equal(chip.min_delay, ref.min_delay, "min_delay");
        expect_bits_equal(chip.static_delay, ref.static_delay, "static_delay");
        ASSERT_EQ(table_rng.engine()(), ref_rng.engine()());
      }
      // The lane kernels walk the same table: the three dies in one call.
      LaneWorkspace lanes;
      std::vector<Chip> dies(kLanes);
      expect_lanes_match_sample_chip(m, kSeeds, lanes, dies);
    }
  }
}

TEST(FormTable, LaneKernelsMatchSampleChipForEveryBlockSize) {
  // Every block size 1..kLanes on one reused workspace (its lanes past the
  // block hold the previous block's dies), nominal and inflated. ac97_ctrl
  // has static pairs; s38584 is the tester-floor circuit.
  for (const char* name : {"s38584", "ac97_ctrl"}) {
    const auto c = netlist::generate_circuit(netlist::paper_benchmark_spec(name));
    for (double inflation : {1.0, 1.1}) {
      SCOPED_TRACE(std::string(name) + " @" + std::to_string(inflation));
      const CircuitModel m = catalog_model(c, inflation);
      LaneWorkspace lanes;
      std::vector<Chip> dies(kLanes);
      for (std::size_t n = 1; n <= kLanes; ++n) {
        std::vector<std::uint64_t> seeds;
        for (std::size_t b = 0; b < n; ++b) seeds.push_back(100 * n + b);
        expect_lanes_match_sample_chip(m, seeds, lanes, dies);
      }
    }
  }
}

TEST(FormTable, CovarianceFillMatchesTheMergeInEveryCell) {
  // The serial fill is checked against max_cov in every cell (mirrors and
  // the inflated diagonal included), the 4-thread fill against the serial
  // one, bit for bit.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const char* name : kCatalog) {
    const auto c = netlist::generate_circuit(netlist::paper_benchmark_spec(name));
    for (double inflation : kInflations) {
      SCOPED_TRACE(std::string(name) + " @" + std::to_string(inflation));
      const CircuitModel m = catalog_model(c, inflation);
      const std::size_t n = m.num_pairs();
      const linalg::Matrix serial = m.max_covariance(1);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
          const std::uint64_t want = bits(m.max_cov(i, j));
          if (bits(serial(i, j)) != want || bits(serial(j, i)) != want) {
            FAIL() << "cell " << i << "," << j;
          }
        }
      }
      const linalg::Matrix pooled = m.max_covariance(4);
      ASSERT_TRUE(std::ranges::equal(serial.data(), pooled.data(), {}, bits,
                                     bits));
    }
  }
}

}  // namespace
}  // namespace effitest::timing
