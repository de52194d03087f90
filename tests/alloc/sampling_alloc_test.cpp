// Heap allocations of die sampling (per die and per lane-kernel block),
// pinned like a golden (counting_new.hpp).

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "counting_new.hpp"
#include "netlist/generator.hpp"
#include "timing/model.hpp"

namespace effitest::timing {
namespace {

using alloc::allocations_during;

TEST(SamplingAllocations, WarmWorkspaceCountsArePinned) {
  const netlist::CellLibrary lib = netlist::CellLibrary::standard();
  // s38584 is the tester-floor circuit, mem_ctrl the memory-bound one;
  // ac97_ctrl promotes static background pairs (a third Chip vector).
  for (const char* name : {"s38584", "mem_ctrl", "ac97_ctrl"}) {
    SCOPED_TRACE(name);
    const auto c =
        netlist::generate_circuit(netlist::paper_benchmark_spec(name));
    const CircuitModel m(c.netlist, lib, c.buffered_ffs);
    const bool has_static = m.num_static_pairs() > 0;
    EXPECT_EQ(has_static, std::string(name) == "ac97_ctrl");

    stats::Rng rng(7);
    SampleWorkspace ws;
    std::vector<stats::Rng> block(kLanes, stats::Rng(8));
    LaneWorkspace lanes;
    std::vector<Chip> dies(kLanes);
    (void)m.sample_chip(rng, ws);
    (void)m.sample_min_delays(block, lanes);
    m.sample_chips(block, lanes, dies);

    for (int die = 0; die < 3; ++die) {
      // A warm lane workspace: no allocation per block, full or short.
      for (std::size_t n : {kLanes, std::size_t{3}}) {
        const std::span<stats::Rng> rngs(block.data(), n);
        EXPECT_EQ(allocations_during(
                      [&] { (void)m.sample_required_periods(rngs, lanes); }),
                  0u);
        EXPECT_EQ(allocations_during(
                      [&] { (void)m.sample_min_delays(rngs, lanes); }),
                  0u);
        // Whole dies into warm Chips: none either.
        const std::span<Chip> chips(dies.data(), n);
        EXPECT_EQ(allocations_during(
                      [&] { m.sample_chips(rngs, lanes, chips); }),
                  0u);
      }
      // One allocation per non-empty Chip vector: max_delay, min_delay and,
      // with promoted pairs, static_delay.
      EXPECT_EQ(allocations_during([&] { (void)m.sample_chip(rng, ws); }),
                has_static ? 3u : 2u);
    }
    // Without a workspace the two deviate buffers are allocated too.
    EXPECT_EQ(allocations_during([&] { (void)m.sample_chip(rng); }),
              has_static ? 5u : 4u);
  }
}

}  // namespace
}  // namespace effitest::timing
