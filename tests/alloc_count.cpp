#include "alloc_count.h"

#include <cstdlib>
#include <new>

std::atomic<std::int64_t> g_t2c_alloc_count{0};
std::atomic<std::int64_t> g_t2c_large_alloc_count{0};

#if !defined(__SANITIZE_ADDRESS__)

// GCC pairs our malloc-backed operator new with the replaced operator
// delete just fine at runtime, but its static analysis flags the free()
// as mismatched once the operators inline — silence that one diagnostic.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_t2c_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (n >= kT2cLargeAlloc) {
    g_t2c_large_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

#endif  // !__SANITIZE_ADDRESS__
