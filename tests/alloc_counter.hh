/**
 * @file
 * Heap-allocation counter of the zero-allocation tests.
 *
 * alloc_counter.cc replaces the global operator new/delete of every
 * test binary that links it with malloc/free-backed versions that
 * count allocations while a measurement window is open. It is its
 * own translation unit, so no delete expression in a test sees the
 * free() behind it (g++ would flag that pairing with
 * -Wmismatched-new-delete).
 */

#ifndef SMASH_TESTS_ALLOC_COUNTER_HH
#define SMASH_TESTS_ALLOC_COUNTER_HH

#include <cstdint>

namespace alloc_counter
{

/** Zero the count and open the measurement window. */
void start();
/** Close the window; the allocations counted while it was open. */
std::uint64_t stop();

} // namespace alloc_counter

/** Allocations observed while fn() ran. The counter is global: pool
 *  workers' allocations (if fn fans out) are counted too — exactly
 *  what the steady-state contract needs. */
template <typename Fn>
std::uint64_t
allocationsDuring(Fn&& fn)
{
    alloc_counter::start();
    fn();
    return alloc_counter::stop();
}

#endif // SMASH_TESTS_ALLOC_COUNTER_HH
