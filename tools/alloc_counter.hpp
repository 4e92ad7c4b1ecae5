#ifndef CSECG_TOOLS_ALLOC_COUNTER_HPP
#define CSECG_TOOLS_ALLOC_COUNTER_HPP

/// \file alloc_counter.hpp
/// Heap-allocation counting for the steady-state allocation gates
/// (`csecg_tool gateway --soak`, bench_fleet). Linking the
/// csecg_alloc_counter object library replaces the global operator
/// new/delete family: every allocation made between begin() and end() is
/// counted, on any thread. Set CSECG_ALLOC_TRAP=1 to abort with a
/// backtrace at the first counted allocation, which names the offender
/// directly.
///
/// The replacements live in their own translation unit so no caller can
/// inline the free() behind operator delete next to an operator new (GCC
/// reports that pairing as -Wmismatched-new-delete).

#include <cstddef>

namespace csecg::alloc_counter {

/// Zeroes the count and starts counting.
void begin();

/// Stops counting; returns the allocations counted since begin().
std::size_t end();

}  // namespace csecg::alloc_counter

#endif  // CSECG_TOOLS_ALLOC_COUNTER_HPP
