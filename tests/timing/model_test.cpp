#include "timing/model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "netlist/generator.hpp"
#include "stats/distributions.hpp"

namespace effitest::timing {
namespace {

const netlist::CellLibrary& lib() {
  static const netlist::CellLibrary library = netlist::CellLibrary::standard();
  return library;
}

netlist::GeneratedCircuit tiny_circuit() {
  netlist::GeneratorSpec s;
  s.name = "model_test";
  s.num_flip_flops = 50;
  s.num_gates = 600;
  s.num_buffers = 2;
  s.num_critical_paths = 16;
  s.seed = 11;
  return netlist::generate_circuit(s);
}

/// FNV-1a over the model's structure, field by field. A loading entry is
/// hashed as (index, weight) rather than as raw std::pair bytes, which
/// would read the padding between the int and the double.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(int v) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const DelayForm& f) {
    add(f.mean);
    add(static_cast<std::uint64_t>(f.loading.size()));
    for (const auto& [index, weight] : f.loading) {
      add(index);
      add(weight);
    }
    add(static_cast<std::uint64_t>(f.mismatch_slots.size()));
    for (int slot : f.mismatch_slots) add(slot);
    add(f.mismatch_var);
    add(f.extra_indep_var);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t model_digest(const CircuitModel& m) {
  Digest d;
  d.add(static_cast<std::uint64_t>(m.num_pairs()));
  for (const MonitoredPair& p : m.pairs()) {
    d.add(p.id);
    d.add(p.src_ff);
    d.add(p.dst_ff);
    d.add(static_cast<std::uint64_t>(p.max_alts.size()));
    for (const DelayForm& f : p.max_alts) d.add(f);
    d.add(p.max_form());
    d.add(p.min_form);
  }
  d.add(static_cast<std::uint64_t>(m.num_static_pairs()));
  for (const DelayForm& f : m.static_forms()) d.add(f);
  d.add(static_cast<std::uint64_t>(m.num_discarded_pairs()));
  d.add(m.nominal_critical_delay());
  return d.value();
}

TEST(CircuitModel, MonitoredPairsMatchGeneratorEdges) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  EXPECT_EQ(m.num_pairs(), c.critical_edges.size());
  // Every monitored pair corresponds to a generator edge.
  std::set<std::pair<int, int>> expected(c.critical_edges.begin(),
                                         c.critical_edges.end());
  for (const MonitoredPair& p : m.pairs()) {
    EXPECT_TRUE(expected.contains({p.src_ff, p.dst_ff}));
    EXPECT_TRUE(m.buffer_index(p.src_ff) >= 0 ||
                m.buffer_index(p.dst_ff) >= 0);
  }
}

TEST(CircuitModel, BufferIndexLookup) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  for (std::size_t i = 0; i < c.buffered_ffs.size(); ++i) {
    EXPECT_EQ(m.buffer_index(c.buffered_ffs[i]), static_cast<int>(i));
  }
  EXPECT_EQ(m.buffer_index(-1 + 0), -1);  // nonexistent id never matches
}

TEST(CircuitModel, RejectsBadBufferList) {
  const auto c = tiny_circuit();
  // A combinational gate cannot carry a clock tuning buffer.
  int gate = -1;
  for (std::size_t i = 0; i < c.netlist.num_cells(); ++i) {
    if (netlist::is_combinational(c.netlist.cell(static_cast<int>(i)).type)) {
      gate = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(gate, 0);
  EXPECT_THROW(CircuitModel(c.netlist, lib(), {gate}), std::invalid_argument);
  EXPECT_THROW(
      CircuitModel(c.netlist, lib(),
                   {c.buffered_ffs[0], c.buffered_ffs[0]}),
      std::invalid_argument);
}

TEST(CircuitModel, MeansIncludeSetupAndArePositive) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  for (const MonitoredPair& p : m.pairs()) {
    EXPECT_GT(p.max_form().mean, lib().dff_setup_ps());
    EXPECT_GE(p.max_form().mean, p.min_form.mean);
    EXPECT_FALSE(p.max_alts.empty());
    EXPECT_NEAR(p.max_alts.front().mean, p.max_form().mean, 1e-12);
  }
}

TEST(CircuitModel, CovarianceIsSymmetricPsd) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  const linalg::Matrix cov = m.max_covariance();
  for (std::size_t i = 0; i < cov.rows(); ++i) {
    EXPECT_GT(cov(i, i), 0.0);
    for (std::size_t j = 0; j < cov.cols(); ++j) {
      EXPECT_NEAR(cov(i, j), cov(j, i), 1e-12);
      // |corr| <= 1.
      EXPECT_LE(std::abs(cov(i, j)),
                std::sqrt(cov(i, i) * cov(j, j)) + 1e-9);
    }
  }
}

TEST(CircuitModel, SigmasConsistentWithCovariance) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  const linalg::Matrix cov = m.max_covariance();
  const std::vector<double> sigma = m.max_sigmas();
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    EXPECT_NEAR(sigma[i] * sigma[i], cov(i, i), 1e-9);
  }
}

TEST(CircuitModel, ChipSamplingMatchesModelStatistics) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  stats::Rng rng(21);
  const std::size_t chips = 4000;
  const std::size_t probe = 0;
  std::vector<double> samples(chips);
  for (std::size_t k = 0; k < chips; ++k) {
    samples[k] = m.sample_chip(rng).max_delay[probe];
  }
  const double mu = m.pairs()[probe].max_form().mean;
  const double sd = m.pairs()[probe].max_form().sigma();
  // Truth is a max over near-critical alternatives, so the sampled mean may
  // sit slightly above the primary-path mean but far within one sigma.
  EXPECT_NEAR(stats::mean(samples), mu, 0.5 * sd);
  EXPECT_NEAR(stats::stddev(samples), sd, 0.2 * sd);
}

TEST(CircuitModel, EmpiricalCorrelationTracksModel) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  const linalg::Matrix cov = m.max_covariance();
  stats::Rng rng(31);
  const std::size_t chips = 3000;
  std::vector<double> diff(chips);
  const std::size_t i = 0;
  const std::size_t j = m.num_pairs() - 1;
  for (std::size_t k = 0; k < chips; ++k) {
    const Chip chip = m.sample_chip(rng);
    diff[k] = chip.max_delay[i] - chip.max_delay[j];
  }
  // Var(d_i - d_j) = s_ii + s_jj - 2 s_ij: a correlation error of 0.08
  // moves it by 0.16 sqrt(s_ii s_jj).
  const double model_var = cov(i, i) + cov(j, j) - 2.0 * cov(i, j);
  EXPECT_NEAR(stats::variance(diff), model_var,
              0.16 * std::sqrt(cov(i, i) * cov(j, j)));
}

TEST(CircuitModel, MinDelaysBelowMaxDelays) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  stats::Rng rng(41);
  for (int k = 0; k < 20; ++k) {
    const Chip chip = m.sample_chip(rng);
    for (std::size_t p = 0; p < m.num_pairs(); ++p) {
      // min path excludes the setup margin, max includes it.
      EXPECT_LT(chip.min_delay[p], chip.max_delay[p]);
    }
  }
}

TEST(CircuitModel, RandomInflationGrowsVarianceNotCovariance) {
  const auto c = tiny_circuit();
  const CircuitModel base(c.netlist, lib(), c.buffered_ffs);
  ModelOptions opts;
  opts.random_inflation = 1.1;
  const CircuitModel inflated(c.netlist, lib(), c.buffered_ffs, opts);
  const linalg::Matrix cov0 = base.max_covariance();
  const linalg::Matrix cov1 = inflated.max_covariance();
  ASSERT_EQ(cov0.rows(), cov1.rows());
  for (std::size_t i = 0; i < cov0.rows(); ++i) {
    // Diagonal scaled by 1.1^2 exactly (Fig. 7 protocol).
    EXPECT_NEAR(cov1(i, i), 1.21 * cov0(i, i), 1e-6 * cov0(i, i));
    for (std::size_t j = 0; j < cov0.cols(); ++j) {
      if (i == j) continue;
      EXPECT_NEAR(cov1(i, j), cov0(i, j), 1e-9);  // off-diagonals untouched
    }
  }
}

TEST(CircuitModel, InflationBelowOneRejected) {
  const auto c = tiny_circuit();
  ModelOptions opts;
  opts.random_inflation = 0.9;
  EXPECT_THROW(CircuitModel(c.netlist, lib(), c.buffered_ffs, opts),
               std::invalid_argument);
}

TEST(CircuitModel, BackgroundPairsDiscardedAsStaticallySafe) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  // The generator's background ring is far from critical.
  EXPECT_GT(m.num_discarded_pairs(), 0u);
  EXPECT_EQ(m.num_static_pairs(), 0u);
}

TEST(CircuitModel, DeterministicChipStream) {
  const auto c = tiny_circuit();
  const CircuitModel m(c.netlist, lib(), c.buffered_ffs);
  stats::Rng r1(77);
  stats::Rng r2(77);
  const Chip a = m.sample_chip(r1);
  const Chip b = m.sample_chip(r2);
  EXPECT_EQ(a.max_delay, b.max_delay);
  EXPECT_EQ(a.min_delay, b.min_delay);
}

TEST(CircuitModel, WorkspaceSampleChipSharesTheChipStream) {
  // The workspace sample_chip produces exactly the allocating one's values
  // AND leaves the rng engine in exactly the same state, with and without
  // the Fig-7 inflation (which makes every form draw its own deviate in
  // evaluation order). The lane kernels are checked against sample_chip in
  // form_table_test.cpp.
  const auto c = tiny_circuit();
  for (double inflation : {1.0, 1.3}) {
    ModelOptions options;
    options.random_inflation = inflation;
    const CircuitModel m(c.netlist, lib(), c.buffered_ffs, options);
    SampleWorkspace ws;
    for (int round = 0; round < 3; ++round) {
      const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(round);
      stats::Rng full_rng(seed);
      stats::Rng ws_rng(seed);
      const Chip full = m.sample_chip(full_rng);
      const Chip via_ws = m.sample_chip(ws_rng, ws);
      EXPECT_EQ(via_ws.max_delay, full.max_delay);
      EXPECT_EQ(via_ws.min_delay, full.min_delay);
      EXPECT_EQ(ws_rng.engine()(), full_rng.engine()());
    }
  }
}

TEST(CircuitModel, CatalogModelDigestsArePinned) {
  // Locks model construction (pair discovery, path enumeration, mismatch
  // slot numbering, background promotion and inflation) on all 10 catalog
  // circuits: any change to the STA sweep or the pass order that moves one
  // double or one id fails here. Recorded from the full-netlist sweep that
  // preceded the cone-limited one. The generator draws only uniforms, which
  // stats::Rng specifies, so the digests hold under any standard library.
  struct Golden {
    const char* name;
    std::uint64_t base;      // random_inflation 1.0
    std::uint64_t inflated;  // random_inflation 1.5
  };
  static constexpr Golden kGoldens[] = {
      {"s9234", 0xc554a3de4e5f42fdull, 0xa20d57db557a8d70ull},
      {"s13207", 0xee8a226679bd6d79ull, 0x4aabacc56a6a4411ull},
      {"s15850", 0xec6740881ba4d03aull, 0x6abf16579c300a1eull},
      {"s38584", 0x170b25e889f1e0cdull, 0x3915327740636bc1ull},
      {"mem_ctrl", 0x0aa389de25b571caull, 0x134259d608ed132cull},
      {"usb_funct", 0xf6d483c2ac5764b7ull, 0x95749f3d3a71e639ull},
      {"ac97_ctrl", 0xce54bd60a5c0d74eull, 0x17862a89e604cd82ull},
      {"pci_bridge32", 0x2ea4cf7712fdff1bull, 0x447c6c524d1beda4ull},
      {"s35932", 0xca917e7b72b3b75full, 0x7c4ae26c10a2698aull},
      {"s38417", 0xe5613a7497d37b3bull, 0x4533d6a3ac58541cull},
  };
  for (const Golden& g : kGoldens) {
    const auto c =
        netlist::generate_circuit(netlist::paper_benchmark_spec(g.name));
    ModelOptions inflated;
    inflated.random_inflation = 1.5;
    const std::uint64_t base =
        model_digest(CircuitModel(c.netlist, lib(), c.buffered_ffs));
    const std::uint64_t infl =
        model_digest(CircuitModel(c.netlist, lib(), c.buffered_ffs, inflated));
    EXPECT_EQ(base, g.base) << g.name;
    EXPECT_EQ(infl, g.inflated) << g.name << " @1.5";
  }
}

}  // namespace
}  // namespace effitest::timing
