// Heap allocations of the per-chip tester loop, pinned like a golden
// (counting_new.hpp). Each die runs the way a tester floor does: sampled
// on one thread into a warm SampleWorkspace, then one session minted from
// a prepared TunerService and driven against the simulated die. Only
// TuningSession::drive is counted: the aligned test, prediction,
// configuration and the final go/no-go test.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "core/tuner_service.hpp"
#include "counting_new.hpp"
#include "parallel/deterministic_for.hpp"
#include "scenario/circuit_catalog.hpp"

namespace effitest::core {
namespace {

using alloc::allocations_during;

struct DriveTotals {
  std::size_t allocations = 0;
  std::size_t iterations = 0;  ///< tester iterations of the aligned test
};

DriveTotals drive_dies(const TunerService& service, std::size_t first,
                       std::size_t last) {
  const Problem& problem = service.problem();
  timing::SampleWorkspace ws;  // warm after the first die
  DriveTotals out;
  for (std::size_t c = first; c < last; ++c) {
    stats::Rng rng(parallel::index_seed(service.monte_carlo_seed_base(), c));
    const timing::Chip chip = problem.model().sample_chip(rng, ws);
    SimulatedChip tester(problem, chip);
    TuningSession session = service.begin_chip();
    out.allocations += allocations_during([&] { session.drive(tester); });
    out.iterations += session.report().test.iterations;
  }
  return out;
}

TEST(SessionAllocations, DriveTotalsArePinned) {
  struct Pin {
    const char* circuit;
    DriveTotals totals;
  };
  // Dies 50-149 of the seed-2016 stream. s38584 is the tester-floor
  // circuit; s9234 is the networked sessions' circuit.
  const Pin pins[] = {
      {"s9234", {7837, 2673}},
      {"s38584", {14313, 7984}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.circuit);
    FlowOptions options;
    options.seed = 2016;
    options.threads = 1;
    const TunerService service(
        scenario::CircuitCatalog::shared_paper()->resolve(pin.circuit),
        options);
    const DriveTotals got = drive_dies(service, 50, 150);
    EXPECT_EQ(got.iterations, pin.totals.iterations);
    EXPECT_EQ(got.allocations, pin.totals.allocations);
  }
}

}  // namespace
}  // namespace effitest::core
