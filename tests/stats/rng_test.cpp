// stats::Rng draws are specified in-tree (src/stats/rng.hpp): these tests
// check its engine against std::mt19937_64 word for word, pin the draws as
// exact constants, check the uniforms against libstdc++'s distributions bit
// for bit, and check the ziggurat normals' distribution.

#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "parallel/deterministic_for.hpp"
#include "stats/distributions.hpp"

namespace effitest::stats {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.normal(), b.normal());
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    saw_lo |= v == 1;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkProducesDifferentStream) {
  Rng a(11);
  Rng b = a.fork();
  bool differs = false;
  for (int i = 0; i < 8; ++i) {
    if (a.normal() != b.normal()) differs = true;
  }
  EXPECT_TRUE(differs);
}

// The first 16 draws of each kind from a fresh generator, for two seeds.
// Every value is a function of the seed alone on any toolchain; a change to
// the engine, a transform or the table construction fails here.
struct PinnedDraws {
  std::uint64_t seed;
  std::array<double, 16> normal;
  std::array<double, 16> uniform;
  std::array<std::int64_t, 16> uniform_int;  // uniform_int(-1e6, 1e6)
};

constexpr PinnedDraws kPinned[] = {
    {1,
     {-0x1.6a1be99f46ffp-1, -0x1.f4a7a900d04fap-1, -0x1.ac79e2cfa8ee7p-3,
      -0x1.2d84f6f05d5aep+1, -0x1.f5e9d6909d42fp-2, 0x1.295b01b52316p+0,
      -0x1.978498ad583d2p-4, -0x1.2168738f95555p+1, 0x1.0992a65b81be4p-1,
      0x1.4bb64559bcff1p-1, -0x1.863ecbef0be64p+1, 0x1.e88f1dfebeb5p-3,
      0x1.2d0b0211fd7fap-1, -0x1.2a4b23be674e9p-1, -0x1.7f6d874daa83p-3,
      -0x1.157c2290d007cp+0},
     {0x1.122deafddb438p-3, 0x1.175c928118c7dp-3, 0x1.ce0b479deb991p-2,
      0x1.5876015e4d702p-6, 0x1.6751d5cbb3f1ap-2, 0x1.d29d85a57326dp-1,
      0x1.e20cd8d6456f4p-2, 0x1.30d84f91bf14bp-4, 0x1.23c30166c9e8cp-1,
      0x1.453d06b81c89p-1, 0x1.6e6678d39feefp-4, 0x1.1cc37b0ce96c6p-1,
      0x1.944d435081324p-1, 0x1.c5e7e02bf3a2dp-3, 0x1.acb77165d8341p-2,
      0x1.ff8b9162b3529p-3},
     {-732247, -727186, -97570, -957952, -298204, 822717, -58496, -851150,
      139694, 270463, -821094, 112358, 579304, -556733, -162663, -500444}},
    {2016,
     {0x1.d9dc1f5f3e025p-1, 0x1.2a89e24edbd4p+0, 0x1.8761e626e35eep-1,
      0x1.c76b7959f1042p-2, 0x1.c151575637453p-2, -0x1.82732ad34a4dap-1,
      0x1.0f206bab3c5fdp+0, 0x1.86bee79123dd5p-2, 0x1.3310707807c8dp-1,
      0x1.ee0d4bc3a817bp-2, -0x1.d634f2565dae6p+0, -0x1.4eecbcfa89e28p-4,
      0x1.c9ddd29101b5p-1, 0x1.555fe16448f42p-1, 0x1.a44fc312f83bdp+0,
      0x1.edbb8ec0aa816p-1},
     {0x1.3fcf36fab2af2p-1, 0x1.7062674478015p-1, 0x1.894d8e779f01ap-1,
      0x1.5f607f2e4d4abp-1, 0x1.300dc7904a2a2p-1, 0x1.57ec7b96c5098p-3,
      0x1.c3c1c440a3499p-1, 0x1.9c75776a270bfp-1, 0x1.4dee55b627f9bp-1,
      0x1.9f0be9092b527p-1, 0x1.e34a66b3f103bp-5, 0x1.bcf23c70a2fefp-2,
      0x1.a3b505284f0aap-1, 0x1.84426596f4b73p-1, 0x1.c40421efd8b79p-1,
      0x1.c593cf7efb89bp-1},
     {249256, 439002, 536340, 372566, 187710, -664137, 764676, 611168,
      304418, 621276, -882010, -130964, 639481, 516638, 765688, 771787}},
};

TEST(Rng, FirstDrawsArePinned) {
  for (const PinnedDraws& p : kPinned) {
    Rng normal(p.seed);
    Rng uniform(p.seed);
    Rng uniform_int(p.seed);
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(normal.normal(), p.normal[i]) << p.seed << " #" << i;
      EXPECT_EQ(uniform.uniform(), p.uniform[i]) << p.seed << " #" << i;
      EXPECT_EQ(uniform_int.uniform_int(-1000000, 1000000), p.uniform_int[i])
          << p.seed << " #" << i;
    }
  }
}

// The in-tree engine is the standard's mt19937_64 word for word: the same
// seeding, the same twist recurrence (with a mask for the matrix term) and
// the same tempering. 1,000 words per seed run over three twists.
TEST(Mt19937_64, MatchesTheStandardEngineWordForWord) {
  const std::uint64_t seeds[] = {0,
                                 1,
                                 5489,
                                 ~std::uint64_t{0},
                                 parallel::index_seed(2016, 0),
                                 parallel::index_seed(2016, 7),
                                 parallel::index_seed(0x7157, 1999)};
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 standard(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(ours(), standard()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Mt19937_64, TenThousandthWordIsTheStandardsValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

#if defined(__GLIBCXX__)
// The in-tree uniforms replaced libstdc++'s distributions without moving a
// value: every circuit, digest and random test instance built from them is
// unchanged. Compared on the same engine sequence, bit for bit.
TEST(Rng, UniformsMatchLibstdcxxBitForBit) {
  constexpr int kDraws = 100000;
  Rng ours(77);
  std::mt19937_64 engine(77);
  std::uniform_real_distribution<double> canonical(0.0, 1.0);
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(ours.uniform(), canonical(engine)) << "draw " << i;
  }

  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // Degenerate, tiny, odd, power-of-two, near-full and full ranges (the
  // full one takes the word itself; the others Lemire's rejection).
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0},        {1, 3},     {-1000000, 1000000}, {0, (1LL << 40) - 1},
      {0, 1LL << 62}, {kMin, 0}, {-1, kMax},          {kMin, kMax},
      {kMin + 1, kMax}};
  Rng ours_int(78);
  std::mt19937_64 engine_int(78);
  for (int i = 0; i < kDraws; ++i) {
    const auto& [lo, hi] = ranges[static_cast<std::size_t>(i) %
                                  std::size(ranges)];
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    ASSERT_EQ(ours_int.uniform_int(lo, hi), dist(engine_int))
        << "draw " << i << " in [" << lo << ", " << hi << "]";
  }
}
#endif

TEST(Rng, ZigguratNormalsHaveTheStandardDistribution) {
  // Bounds are 5 standard errors: moments from their large-sample
  // variances (mean 1/n, variance 2/n, kurtosis 24/n), tail frequencies
  // from the binomial at the exact Gaussian probabilities. |z| > R is the
  // ziggurat's tail edge, where the draw switches algorithm.
  constexpr std::size_t kN = 1000000;
  constexpr double kTailEdge = 3.442619855899;
  const double n = static_cast<double>(kN);
  Rng rng(20161);
  double s1 = 0.0;
  double s2 = 0.0;
  double s4 = 0.0;
  std::size_t beyond3 = 0;
  std::size_t beyond_edge = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double z = rng.normal();
    s1 += z;
    s2 += z * z;
    s4 += z * z * z * z;
    beyond3 += std::fabs(z) > 3.0 ? 1 : 0;
    beyond_edge += std::fabs(z) > kTailEdge ? 1 : 0;
  }
  const double mean = s1 / n;
  const double var = s2 / n - mean * mean;
  const double kurtosis = (s4 / n) / ((s2 / n) * (s2 / n));
  EXPECT_NEAR(mean, 0.0, 5.0 * std::sqrt(1.0 / n));
  EXPECT_NEAR(var, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(kurtosis, 3.0, 5.0 * std::sqrt(24.0 / n));

  const auto expect_binomial = [&](std::size_t count, double z) {
    const double p = std::erfc(z / std::sqrt(2.0));  // P(|Z| > z)
    EXPECT_NEAR(static_cast<double>(count), n * p,
                5.0 * std::sqrt(n * p * (1.0 - p)))
        << "|z| > " << z;
  };
  expect_binomial(beyond3, 3.0);
  expect_binomial(beyond_edge, kTailEdge);
}

}  // namespace
}  // namespace effitest::stats
