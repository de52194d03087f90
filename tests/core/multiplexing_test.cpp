#include "core/multiplexing.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <stdexcept>

#include "batch_checks.hpp"
#include "netlist/generator.hpp"

namespace effitest::core {
namespace {

struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  Problem problem;

  explicit Fixture(std::size_t np = 24, std::size_t nb = 3,
                   std::uint64_t seed = 13)
      : circuit(netlist::generate_circuit([&] {
          netlist::GeneratorSpec s;
          s.num_flip_flops = 80;
          s.num_gates = 900;
          s.num_buffers = nb;
          s.num_critical_paths = np;
          s.seed = seed;
          return s;
        }())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {}

  [[nodiscard]] std::vector<std::size_t> all_paths() const {
    std::vector<std::size_t> idx(model.num_pairs());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    return idx;
  }
};

TEST(Multiplexing, AllBatchesLegal) {
  const Fixture f;
  for (const auto& batches : {build_batches(f.problem, f.all_paths()),
                              optimal_batches(f.problem, f.all_paths())}) {
    for (const Batch& b : batches) {
      EXPECT_TRUE(batch_is_legal(f.problem, b));
    }
  }
}

TEST(Multiplexing, ColoringFlagIsInert) {
  const Fixture f;
  BatchingOptions on;
  on.optimal_coloring = true;
  BatchingOptions off;
  off.optimal_coloring = false;
  const auto a = build_batches(f.problem, f.all_paths(), on);
  const auto b = build_batches(f.problem, f.all_paths(), off);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].paths, b[i].paths) << "batch " << i;
  }
}

TEST(Multiplexing, EveryPathAssignedExactlyOnce) {
  const Fixture f;
  const auto paths = f.all_paths();
  const auto batches = build_batches(f.problem, paths);
  std::set<std::size_t> seen;
  for (const Batch& b : batches) {
    for (std::size_t p : b.paths) {
      EXPECT_TRUE(seen.insert(p).second) << "path " << p << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), paths.size());
}

TEST(Multiplexing, OptimalColoringHitsLowerBound) {
  const Fixture f;
  const auto paths = f.all_paths();
  const auto batches = optimal_batches(f.problem, paths);
  EXPECT_EQ(batches.size(), batch_lower_bound(f.problem, paths));
}

TEST(Multiplexing, GreedyWithinTwiceLowerBound) {
  const Fixture f;
  const auto paths = f.all_paths();
  const auto batches = build_batches(f.problem, paths);
  EXPECT_GE(batches.size(), batch_lower_bound(f.problem, paths));
  EXPECT_LE(batches.size(), 2 * batch_lower_bound(f.problem, paths));
}

TEST(Multiplexing, EmptyInput) {
  const Fixture f;
  EXPECT_TRUE(build_batches(f.problem, std::vector<std::size_t>{}).empty());
  EXPECT_TRUE(optimal_batches(f.problem, std::vector<std::size_t>{}).empty());
  EXPECT_EQ(batch_lower_bound(f.problem, std::vector<std::size_t>{}), 0u);
}

TEST(Multiplexing, SinglePath) {
  const Fixture f;
  const std::vector<std::size_t> one{0};
  const auto batches = build_batches(f.problem, one);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].paths.size(), 1u);
}

TEST(Multiplexing, BatchIsLegalDetectsSharedEndpoints) {
  const Fixture f;
  const auto& pairs = f.model.pairs();
  // Find two paths sharing a source.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = i + 1; j < pairs.size(); ++j) {
      if (pairs[i].src_ff == pairs[j].src_ff ||
          pairs[i].dst_ff == pairs[j].dst_ff) {
        EXPECT_FALSE(batch_is_legal(f.problem, Batch{{i, j}}));
        return;
      }
    }
  }
  GTEST_SKIP() << "no conflicting pair in fixture";
}

TEST(Multiplexing, ExclusionsForceSeparation) {
  const Fixture f;
  // Pick two paths that would otherwise share a batch.
  const auto batches = build_batches(f.problem, f.all_paths());
  const Batch* big = nullptr;
  for (const Batch& b : batches) {
    if (b.paths.size() >= 2) {
      big = &b;
      break;
    }
  }
  ASSERT_NE(big, nullptr) << "fixture produced only singleton batches";
  BatchingOptions opts;
  opts.exclusions.emplace_back(big->paths[0], big->paths[1]);
  const auto constrained = build_batches(f.problem, f.all_paths(), opts);
  for (const Batch& b : constrained) {
    EXPECT_TRUE(batch_is_legal(f.problem, b, opts));
  }
}

TEST(Multiplexing, SeriesChainsShareBatch) {
  // Hub-to-hub plus hub-to-satellite paths in series (p14, p46 style) are
  // legal together; verify via batch_is_legal on a constructed series pair.
  const Fixture f;
  const auto& pairs = f.model.pairs();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = 0; j < pairs.size(); ++j) {
      if (i == j) continue;
      if (pairs[i].dst_ff == pairs[j].src_ff &&
          pairs[i].src_ff != pairs[j].src_ff &&
          pairs[i].dst_ff != pairs[j].dst_ff &&
          pairs[i].src_ff != pairs[j].dst_ff) {
        EXPECT_TRUE(batch_is_legal(f.problem, Batch{{i, j}}));
        return;
      }
    }
  }
  GTEST_SKIP() << "no series pair in fixture";
}

TEST(FillEmptySlots, TopsUpSmallBatches) {
  const Fixture f;
  const auto paths = f.all_paths();
  // Batch only the first half; offer the rest as candidates.
  const std::vector<std::size_t> half(paths.begin(),
                                      paths.begin() + paths.size() / 2);
  auto batches = build_batches(f.problem, half);
  std::size_t max_before = 0;
  for (const Batch& b : batches) max_before = std::max(max_before, b.paths.size());

  const std::vector<std::size_t> candidates(paths.begin() + paths.size() / 2,
                                            paths.end());
  const auto inserted = fill_empty_slots(f.problem, batches, candidates, {},
                                         f.model.max_means());
  for (const Batch& b : batches) {
    EXPECT_TRUE(batch_is_legal(f.problem, b));
    EXPECT_LE(b.paths.size(), max_before);
  }
  // Every inserted path occurs exactly once.
  std::set<std::size_t> seen;
  for (const Batch& b : batches) {
    for (std::size_t p : b.paths) EXPECT_TRUE(seen.insert(p).second);
  }
  EXPECT_EQ(seen.size(), half.size() + inserted.size());
}

TEST(FillEmptySlots, RequiresOneCenterPerPair) {
  const Fixture f;
  std::vector<Batch> batches{Batch{{0}}};
  const std::vector<std::size_t> cand{1};
  EXPECT_THROW((void)fill_empty_slots(f.problem, batches, cand, {}, {}),
               std::invalid_argument);
}

TEST(FillEmptySlots, CenterAwarePrefersNearbyBatch) {
  const Fixture f;
  // Two singleton batches with distinct centers; candidate closer to the
  // second must land there.
  const auto paths = f.all_paths();
  ASSERT_GE(paths.size(), 3u);
  // Construct centers: batch means 100 and 200, candidate at 195.
  std::vector<double> centers(f.model.num_pairs(), 0.0);

  // Find three mutually non-conflicting paths.
  std::vector<std::size_t> chosen;
  for (std::size_t p : paths) {
    Batch trial{chosen};
    trial.paths.push_back(p);
    if (batch_is_legal(f.problem, trial)) {
      chosen.push_back(p);
      if (chosen.size() == 3) break;
    }
  }
  if (chosen.size() < 3) GTEST_SKIP() << "not enough compatible paths";

  centers[chosen[0]] = 100.0;
  centers[chosen[1]] = 200.0;
  centers[chosen[2]] = 195.0;
  std::vector<Batch> batches{Batch{{chosen[0], paths.back()}},
                             Batch{{chosen[1]}}};
  // Make batch sizes unequal so the second has an empty slot.
  const std::vector<std::size_t> cand{chosen[2]};
  const auto inserted =
      fill_empty_slots(f.problem, batches, cand, {}, centers);
  if (!inserted.empty()) {
    EXPECT_EQ(batches[1].paths.size(), 2u);
  }
}

class MultiplexingPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiplexingPropertyTest, ColoringOptimalOnRandomCircuits) {
  const Fixture f(30, 4, GetParam());
  const auto paths = f.all_paths();
  const auto optimal = optimal_batches(f.problem, paths);
  EXPECT_EQ(optimal.size(), batch_lower_bound(f.problem, paths));
  const auto first_fit = build_batches(f.problem, paths);
  EXPECT_GE(first_fit.size(), optimal.size());
  for (const auto& batches : {optimal, first_fit}) {
    std::size_t total = 0;
    for (const Batch& b : batches) {
      EXPECT_TRUE(batch_is_legal(f.problem, b));
      total += b.paths.size();
    }
    EXPECT_EQ(total, paths.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiplexingPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace effitest::core
