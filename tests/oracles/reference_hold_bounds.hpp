#pragma once
// The full-rescan greedy scenario discard, kept verbatim as the bit-identity
// oracle of core::greedy_discard_bounds (core/hold_bounds.hpp), which ranks
// each pair once instead; do not "optimize".

#include <vector>

namespace effitest::core {

/// greedy_discard_bounds as two full passes over the kept samples per
/// discarded sample: the per-pair top two, then every sample's benefit.
[[nodiscard]] std::vector<double> reference_greedy_discard_bounds(
    const std::vector<std::vector<double>>& delta, double yield);

}  // namespace effitest::core
