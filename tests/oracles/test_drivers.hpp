#pragma once
// Whole-chip drivers of Procedure 2 against a ChipUnderTest, for tests.
// The library drives chips through TuningSession (core/tuner_service.hpp);
// these loops expose the delay test on its own and the path-wise baseline
// that tests compare it with.

#include <span>
#include <vector>

#include "core/alignment.hpp"
#include "core/multiplexing.hpp"
#include "core/problem.hpp"
#include "core/test_engine.hpp"
#include "core/tuner_service.hpp"

namespace effitest::core {

/// Run the aligned delay test on one chip over the given batches: a
/// DelayTestMachine answered by `chip`, one `apply` per tester iteration.
/// `prior_lower` / `prior_upper` are indexed by monitored-pair id
/// (mu -/+ 3 sigma initially, §3.3).
[[nodiscard]] TestRunResult run_delay_test(
    const Problem& problem, ChipUnderTest& chip,
    const std::vector<Batch>& batches, std::span<const double> prior_lower,
    std::span<const double> prior_upper,
    std::span<const HoldConstraintX> hold, const TestOptions& options = {});

/// Path-wise frequency stepping over all monitored pairs (the comparison
/// baseline): every path is bisected individually, one armed pair per
/// tester iteration, buffers frozen at neutral. Its per-path count is
/// pathwise_iterations.
[[nodiscard]] TestRunResult run_pathwise_test(
    const Problem& problem, ChipUnderTest& chip,
    std::span<const double> prior_lower, std::span<const double> prior_upper,
    const TestOptions& options = {});

}  // namespace effitest::core
