// Shared global allocation counter for the zero-allocation guarantees.
//
// alloc_count.cpp replaces the test binary's global operator new/delete
// pair so every heap allocation bumps g_t2c_alloc_count; the profile and
// PMU suites use deltas of it to prove their disabled paths return run_int
// to the exact baseline allocation count. ASan interposes every
// new/delete variant itself and a partial replacement trips its
// alloc-dealloc matcher, so the replacement is compiled out there and the
// dependent tests skip (kT2cAllocCounting == false).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

extern std::atomic<std::int64_t> g_t2c_alloc_count;

/// Allocations of at least kT2cLargeAlloc bytes: tensor-sized blocks, as
/// opposed to shapes, closures and other small bookkeeping.
extern std::atomic<std::int64_t> g_t2c_large_alloc_count;
inline constexpr std::size_t kT2cLargeAlloc = 1024;

#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kT2cAllocCounting = false;
#else
inline constexpr bool kT2cAllocCounting = true;
#endif
