// Heap allocations of per-die sampling, pinned like a golden. This binary
// replaces the global operator new with a counting one, so the library
// carries no hook; a test reads only the count's change across one call.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "netlist/generator.hpp"
#include "timing/model.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};

// Out of line: inlined next to a `new`, GCC flags the malloc/free pairing
// of the replacements as mismatched (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace effitest::timing {
namespace {

template <typename F>
std::size_t allocations_during(F&& f) {
  const std::size_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

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
    std::vector<double> min_delay;
    (void)m.sample_chip(rng, ws);
    m.sample_min_delays(rng, ws, min_delay);

    for (int die = 0; die < 3; ++die) {
      EXPECT_EQ(allocations_during(
                    [&] { (void)m.sample_required_period(rng, ws); }),
                0u);
      EXPECT_EQ(allocations_during(
                    [&] { m.sample_min_delays(rng, ws, min_delay); }),
                0u);
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
