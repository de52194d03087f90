#pragma once
// Deterministic random-number generation.
//
// Every stochastic component of the reproduction (process-variation factors,
// simulated dies, hold-time scenario sampling) draws from this wrapper so
// that experiments are reproducible from a single seed.
//
// Every draw is specified here rather than by the standard library's
// distributions (whose algorithms are implementation-defined), so a seed
// names the same values under any toolchain:
//
//  * the engine is Mt19937_64, an in-tree MT19937-64 whose word sequence is
//    the one the C++ standard fixes for mt19937_64 (same seeding, same
//    312-word state, tempering per call). It differs from libstdc++ only in
//    the twist: libstdc++ selects the matrix term with (y & 1) ? A : 0, a
//    branch that mispredicts on half the words; here it is the mask
//    (0 - (y & 1)) & A. That took a word from ~9 ns to ~2.8 ns and a
//    normal() from ~14 ns to ~6.5 ns (Xeon, GCC 12.2 -O3), and moved no
//    value;
//  * uniform() is generate_canonical's reduction of one 64-bit word w,
//    double(w) / 2^64, with a result of 1 replaced by nextafter(1, 0);
//  * uniform_int() is Lemire's nearly divisionless method on the 128-bit
//    product of one word and the range size (rejection re-draws whole
//    words); a full 64-bit range returns the word itself.
//    Both return exactly what libstdc++'s uniform_real_distribution and
//    uniform_int_distribution return on the same engine, bit for bit;
//  * normal() is a 128-layer ziggurat (Marsaglia & Tsang 2000, with
//    Doornik's 2005 fix). One word gives both parts of a draw without
//    sharing bits: the layer from its low 7 bits and the signed abscissa
//    u = (w >> 11) / 2^52 - 1 from its top 53 bits. About 97% of draws
//    end there; the wedge test and the tail (|z| > R = 3.442619855899)
//    draw further words. The layer tables are built once, on first use.

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace effitest::stats {

/// MT19937-64 (Matsumoto & Nishimura 2004): the standard's mt19937_64 word
/// sequence for the same seed, with a branchless twist.
class Mt19937_64 {
 public:
  explicit Mt19937_64(std::uint64_t seed);

  /// The next tempered 64-bit word.
  std::uint64_t operator()() {
    if (index_ == kStateWords) twist();
    std::uint64_t z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kStateWords = 312;
  /// Regenerates all 312 state words (the standard's recurrence).
  void twist();

  std::uint64_t state_[kStateWords];
  std::size_t index_ = kStateWords;
};

namespace detail {

/// Ziggurat layer tables: x[0] = V / f(R) (the base strip's equivalent
/// width), x[1] = R, x[128] = 0, and ratio[i] = x[i + 1] / x[i], the part of
/// layer i that lies wholly under the density.
struct Ziggurat {
  double x[129];
  double ratio[128];
};

[[nodiscard]] Ziggurat build_ziggurat();

[[nodiscard]] inline const Ziggurat& ziggurat() {
  static const Ziggurat tables = build_ziggurat();
  return tables;
}

}  // namespace detail

/// Seeded pseudo-random generator (MT19937-64) with specified draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  /// Standard normal draw (ziggurat; see the file comment).
  [[nodiscard]] double normal() {
    const detail::Ziggurat& z = detail::ziggurat();
    const std::uint64_t w = engine_();
    const std::size_t layer = w & 0x7f;
    const double u = static_cast<double>(w >> 11) * 0x1p-52 - 1.0;
    if (std::fabs(u) < z.ratio[layer]) return u * z.x[layer];
    return normal_outside(layer, u);
  }

  /// Normal draw with given mean / stddev.
  [[nodiscard]] double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() {
    const double u = static_cast<double>(engine_()) * 0x1p-64;
    return u < 1.0 ? u : std::nextafter(1.0, 0.0);
  }

  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Derive an independent child generator (useful for per-chip streams).
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  [[nodiscard]] Mt19937_64& engine() { return engine_; }

 private:
  /// The rest of a normal draw whose word fell outside layer `layer`'s
  /// inner rectangle: the tail for the base strip, else the wedge test,
  /// with a fresh draw on rejection.
  [[nodiscard]] double normal_outside(std::size_t layer, double u);

  Mt19937_64 engine_;
};

}  // namespace effitest::stats
