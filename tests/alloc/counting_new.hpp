#pragma once
// The alloc binary replaces the global operator new with a counting one
// (counting_new.cpp), so the library carries no hook; a test reads only the
// count's change across one call.

#include <cstddef>

namespace effitest::alloc {

/// Global operator new calls since the process started.
[[nodiscard]] std::size_t allocations();

/// Allocations made while running f().
template <typename F>
std::size_t allocations_during(F&& f) {
  const std::size_t before = allocations();
  f();
  return allocations() - before;
}

}  // namespace effitest::alloc
