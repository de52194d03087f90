// Oracles for CircuitModel's compiled form table: die sampling and the
// covariance fill walk flat arrays, and must reproduce the per-DelayForm
// evaluation and the sorted-merge covariance bit for bit on every catalog
// circuit, nominal and under the Fig-7 inflation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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
  double d = f.mean + sparse_apply(f.loading, ws.factors);
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
        const std::uint64_t next = ref_rng.engine()();
        ASSERT_EQ(table_rng.engine()(), next);

        // The specialized samplers walk the same table with skips.
        double period = 0.0;
        for (double d : ref.max_delay) period = std::max(period, d);
        for (double d : ref.static_delay) period = std::max(period, d);
        stats::Rng period_rng(seed);
        stats::Rng min_rng(seed);
        std::vector<double> min_delay;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(
                      m.sample_required_period(period_rng, ws)),
                  std::bit_cast<std::uint64_t>(period));
        m.sample_min_delays(min_rng, ws, min_delay);
        expect_bits_equal(min_delay, ref.min_delay, "sample_min_delays");
        ASSERT_EQ(period_rng.engine()(), next);
        ASSERT_EQ(min_rng.engine()(), next);
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
