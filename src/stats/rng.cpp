#include "stats/rng.hpp"

#include <limits>

namespace effitest::stats {

namespace {

// Marsaglia & Tsang's 128-layer constants: the tail edge R and the common
// layer area V (each layer, and the base strip plus the tail, holds V of
// the unnormalised density f(x) = exp(-x^2 / 2)).
constexpr double kTailEdge = 3.442619855899;
constexpr double kLayerArea = 9.91256303526217e-3;

// Uniform in (0, 1) from the top 53 bits of one word: the tail takes logs.
double open_uniform(Mt19937_64& engine) {
  return (static_cast<double>(engine() >> 11) + 0.5) * 0x1p-53;
}

}  // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  constexpr std::size_t kShift = 156;  // the recurrence's middle offset m
  constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  const auto mix = [this](std::size_t k, std::size_t next, std::size_t far) {
    const std::uint64_t y = (state_[k] & kUpper) | (state_[next] & ~kUpper);
    state_[k] = state_[far] ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  std::size_t k = 0;
  for (; k < kStateWords - kShift; ++k) mix(k, k + 1, k + kShift);
  for (; k < kStateWords - 1; ++k) mix(k, k + 1, k + kShift - kStateWords);
  mix(kStateWords - 1, 0, kShift - 1);
  index_ = 0;
}

namespace detail {

Ziggurat build_ziggurat() {
  Ziggurat z{};
  double f = std::exp(-0.5 * kTailEdge * kTailEdge);
  z.x[0] = kLayerArea / f;
  z.x[1] = kTailEdge;
  z.x[128] = 0.0;
  for (std::size_t i = 2; i < 128; ++i) {
    z.x[i] = std::sqrt(-2.0 * std::log(kLayerArea / z.x[i - 1] + f));
    f = std::exp(-0.5 * z.x[i] * z.x[i]);
  }
  for (std::size_t i = 0; i < 128; ++i) z.ratio[i] = z.x[i + 1] / z.x[i];
  return z;
}

}  // namespace detail

double Rng::normal_outside(std::size_t layer, double u) {
  if (layer == 0) {
    // Marsaglia's tail method beyond R, on the side u chose.
    double x = 0.0;
    double y = 0.0;
    do {
      x = std::log(open_uniform(engine_)) / kTailEdge;
      y = std::log(open_uniform(engine_));
    } while (-2.0 * y < x * x);
    return u < 0.0 ? x - kTailEdge : kTailEdge - x;
  }
  // Wedge: accept x when a uniform height in layer `layer` falls below
  // f(x); heights are taken relative to f(x) to keep the exponents small.
  const detail::Ziggurat& z = detail::ziggurat();
  const double x = u * z.x[layer];
  const double f0 = std::exp(-0.5 * (z.x[layer] * z.x[layer] - x * x));
  const double f1 = std::exp(-0.5 * (z.x[layer + 1] * z.x[layer + 1] - x * x));
  if (f1 + uniform() * (f0 - f1) < 1.0) return x;
  return normal();  // rejected: a fresh draw
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  std::uint64_t offset = 0;
  if (range == std::numeric_limits<std::uint64_t>::max()) {
    offset = engine_();
  } else {
    const std::uint64_t n = range + 1;
    unsigned __int128 product =
        static_cast<unsigned __int128>(engine_()) * n;
    auto low = static_cast<std::uint64_t>(product);
    if (low < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        product = static_cast<unsigned __int128>(engine_()) * n;
        low = static_cast<std::uint64_t>(product);
      }
    }
    offset = static_cast<std::uint64_t>(product >> 64);
  }
  return static_cast<std::int64_t>(offset + static_cast<std::uint64_t>(lo));
}

}  // namespace effitest::stats
