#include "alloc_counter.hh"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

} // namespace

namespace alloc_counter
{

void
start()
{
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_release);
}

std::uint64_t
stop()
{
    g_counting.store(false, std::memory_order_release);
    return g_allocs.load(std::memory_order_relaxed);
}

} // namespace alloc_counter

// Counting overrides. Deliberately outside any namespace; sized
// deallocation variants forward so every delete form is covered.
void*
operator new(std::size_t size)
{
    if (g_counting.load(std::memory_order_acquire))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}
