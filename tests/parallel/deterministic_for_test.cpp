// Determinism contract of the shared parallel runtime (DESIGN.md §8):
// deterministic_for / deterministic_reduce must produce bit-identical
// results for ANY worker count — including floating-point reductions, whose
// grouping is fixed by the range length alone — must propagate body
// exceptions for any worker count, and must handle the empty range. Thread
// counts exercised: 1, 2, 3, 7 and 0 (= shared-pool width / hardware
// concurrency), the set named by the test-layer issue.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "parallel/deterministic_for.hpp"

namespace effitest::parallel {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 3, 7, 0};

ForOptions with_threads(std::size_t t) {
  ForOptions opts;
  opts.threads = t;
  return opts;
}

TEST(ResolveWorkers, ClampsToItemsAndPoolWidth) {
  const std::size_t width = ThreadPool::shared().width();
  // Explicit requests pass through until a clamp bites: the item count
  // (this is the clamp documented on FlowOptions::threads — a 3-chip run
  // uses <= 3 workers no matter what was requested) or pool width + 1 (the
  // helpers plus the participating caller; more can never run at once).
  EXPECT_EQ(resolve_workers(5, 100), std::min<std::size_t>(5, width + 1));
  EXPECT_EQ(resolve_workers(5, 2), 2u);
  EXPECT_EQ(resolve_workers(1, 100), 1u);
  EXPECT_EQ(resolve_workers(1000, 4096), width + 1);
  // 0 = the shared-pool width, still clamped by the items.
  EXPECT_EQ(resolve_workers(0, 1000), width);
  EXPECT_EQ(resolve_workers(0, 3), std::min<std::size_t>(3, width));
  // Degenerate ranges still report one worker (the caller itself).
  EXPECT_EQ(resolve_workers(0, 0), 1u);
  EXPECT_EQ(resolve_workers(4, 0), 1u);
}

TEST(IndexSeed, MatchesDocumentedFormula) {
  const std::uint64_t base = 0x1234'5678'9abc'def0ULL;
  EXPECT_EQ(index_seed(base, 0), base ^ kSeedStride);
  EXPECT_EQ(index_seed(base, 6), base ^ (kSeedStride * 7));
}

TEST(DeterministicFor, SlotWritesBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 1000;
  const std::uint64_t seed = 2016;

  // Baseline: serial, each index draws from its own stream.
  std::vector<double> baseline(n);
  deterministic_for(n, with_threads(1), seed,
                    [&](std::size_t i, stats::Rng& rng) {
                      baseline[i] = rng.normal() * rng.uniform(0.5, 2.0);
                    });

  for (std::size_t t : kThreadCounts) {
    std::vector<double> got(n, 0.0);
    deterministic_for(n, with_threads(t), seed,
                      [&](std::size_t i, stats::Rng& rng) {
                        got[i] = rng.normal() * rng.uniform(0.5, 2.0);
                      });
    SCOPED_TRACE("threads = " + std::to_string(t));
    EXPECT_EQ(got, baseline);  // element-wise operator==: bit-identical
  }
}

TEST(DeterministicReduce, FloatingPointSumBitIdenticalAcrossThreadCounts) {
  // Summing normals is exactly the shape where per-worker accumulation
  // would break bit-identity (float addition is not associative); the fixed
  // chunk layout must make the folded value identical for every count.
  const std::size_t n = 4097;  // not a multiple of the chunk count
  const std::uint64_t seed = 77;
  const auto body = [](std::size_t, stats::Rng& rng, double& acc) {
    acc += rng.normal();
  };
  const auto combine = [](double& a, const double& b) { a += b; };

  const double baseline =
      deterministic_reduce<double>(n, with_threads(1), seed, body, combine);
  for (std::size_t t : kThreadCounts) {
    const double got =
        deterministic_reduce<double>(n, with_threads(t), seed, body, combine);
    SCOPED_TRACE("threads = " + std::to_string(t));
    EXPECT_EQ(got, baseline);
  }
}

TEST(DeterministicFor, SeededStreamsAreSelfContainedPerIndex) {
  // Index i's draws must depend on (base, i) only — the per-chip contract.
  const std::uint64_t base = 99;
  std::vector<double> first_draw(8);
  deterministic_for(8, with_threads(3), base,
                    [&](std::size_t i, stats::Rng& rng) {
                      first_draw[i] = rng.normal();
                    });
  for (std::size_t i = 0; i < 8; ++i) {
    stats::Rng expected(index_seed(base, i));
    EXPECT_EQ(first_draw[i], expected.normal()) << "index " << i;
  }
}

TEST(DeterministicForBlocks, BlocksSeeIndexStreamsForEveryThreadCount) {
  // Blocks tile [0, n) in order within their span, never straddle a span,
  // and carry each index's own stream: rngs[b] draws what the per-index
  // seeded variant's index first + b draws, for any worker count. n = 61
  // leaves a short last block and a short last span.
  struct Scratch {
    std::size_t blocks = 0;  // blocks run on this scratch so far
  };
  const std::size_t n = 61;
  const std::uint64_t base = 2016;
  std::vector<double> want(n);
  deterministic_for(n, with_threads(1), base,
                    [&](std::size_t i, stats::Rng& rng) {
                      want[i] = rng.normal();
                    });
  for (std::size_t t : kThreadCounts) {
    SCOPED_TRACE("threads = " + std::to_string(t));
    std::vector<double> got(n, 0.0);
    std::vector<std::size_t> block_of_span(n, 99);
    deterministic_for_blocks<Scratch>(
        n, 8, 3, with_threads(t), base,
        [&](std::size_t first, std::span<stats::Rng> rngs, Scratch& scratch) {
          ASSERT_EQ(first % 8, 0u);
          ASSERT_EQ(rngs.size(), std::min<std::size_t>(8, n - first));
          for (std::size_t b = 0; b < rngs.size(); ++b) {
            got[first + b] = rngs[b].normal();
            block_of_span[first + b] = scratch.blocks;
          }
          ++scratch.blocks;
        });
    EXPECT_EQ(got, want);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(block_of_span[i], i / 8 % 3) << "index " << i;
    }
  }
}

TEST(DeterministicFor, EmptyRangeIsANoOpForEveryThreadCount) {
  for (std::size_t t : kThreadCounts) {
    SCOPED_TRACE("threads = " + std::to_string(t));
    bool called = false;
    deterministic_for(0, with_threads(t), [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);

    const double sum = deterministic_reduce<double>(
        0, with_threads(t), [](std::size_t, double&) {},
        [](double& a, const double& b) { a += b; });
    EXPECT_EQ(sum, 0.0);
  }
}

TEST(DeterministicFor, PropagatesBodyExceptionForEveryThreadCount) {
  for (std::size_t t : kThreadCounts) {
    SCOPED_TRACE("threads = " + std::to_string(t));
    try {
      deterministic_for(500, with_threads(t), [&](std::size_t i) {
        if (i == 137) throw std::runtime_error("boom at 137");
      });
      FAIL() << "expected the body exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 137");
    }

    // With several failing indices, the propagated exception must be the
    // serial order's first failure — lowest index wins, any worker count.
    try {
      deterministic_for(500, with_threads(t), [&](std::size_t i) {
        if (i == 137 || i == 42 || i == 499) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected the body exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 42");
    }

    // The pool must stay usable after a failed loop.
    std::size_t visited = deterministic_reduce<std::size_t>(
        100, with_threads(t),
        [](std::size_t, std::size_t& acc) { ++acc; },
        [](std::size_t& a, const std::size_t& b) { a += b; });
    EXPECT_EQ(visited, 100u);
  }
}

TEST(DeterministicFor, NestedLoopsDoNotDeadlockAndStayDeterministic) {
  // The campaign shape: an outer circuit fan-out whose bodies run their own
  // inner parallel loops on the same shared pool. The caller-participates
  // scheduling must make this both deadlock-free and bit-identical.
  const auto run = [](std::size_t outer_threads, std::size_t inner_threads) {
    std::vector<double> per_outer(6, 0.0);
    deterministic_for(6, with_threads(outer_threads), [&](std::size_t o) {
      per_outer[o] = deterministic_reduce<double>(
          400, with_threads(inner_threads), /*seed_base=*/o * 1000 + 1,
          [](std::size_t, stats::Rng& rng, double& acc) {
            acc += rng.normal();
          },
          [](double& a, const double& b) { a += b; });
    });
    return per_outer;
  };

  const std::vector<double> baseline = run(1, 1);
  EXPECT_EQ(run(4, 4), baseline);
  EXPECT_EQ(run(0, 0), baseline);
  EXPECT_EQ(run(2, 7), baseline);
}

}  // namespace
}  // namespace effitest::parallel
