// Shared parallel-execution runtime: one persistent thread pool behind a
// `parallel_for` primitive with *static deterministic partitioning*.
//
// Contract (see DESIGN.md "Threading model"): the partition of [begin, end)
// into contiguous chunks depends on the pool size, so bodies must never let
// results depend on the partition. The rules that make every kernel in this
// repo bit-identical at any thread count:
//   1. each output element is written by exactly one chunk, and its
//      accumulation loop runs in a fixed (chunk-independent) order;
//   2. cross-chunk reductions go through per-slot accumulators and are
//      restricted to order-independent math (integer sums, max), merged
//      once after the parallel_for returns.
// Float kernels follow the same rules, so the dual-path audit produces
// identical SQNR reports and golden vectors for any T2C_THREADS.
//
// Pool lifecycle: created lazily on first use, sized from the T2C_THREADS
// env var (default: hardware concurrency), resizable via set_max_threads()
// (`t2c_cli --threads`). Workers sleep on a condition variable between
// regions; nested parallel_for calls run inline on the calling worker.
//
// Observability (DESIGN.md §3.8): every pooled dispatch is the
// instrumentation boundary. With tracing on, each chunk records a busy
// span on its worker's trace track (workers register as `pool.worker.N`)
// and the region brackets a `pool.occupancy` counter; with metrics on,
// per-region stats land in `pool.regions`/`pool.chunks` counters and the
// `pool.region_ms`/`pool.imbalance` (slowest/mean chunk) histograms.
// Disabled cost: one tier-word load per pooled region.
#pragma once

#include <cstdint>
#include <type_traits>

namespace t2c::par {

/// Current pool size (>= 1). First call resolves T2C_THREADS.
int max_threads();

/// Resizes the pool (clamped to >= 1). Must not be called from inside a
/// parallel region or concurrently with parallel_for.
void set_max_threads(int n);

/// Upper bound (exclusive) for the `slot` argument passed to bodies — size
/// per-slot accumulator arrays with this. Stable across one parallel_for.
int max_slots();

namespace detail {
/// Non-owning view of a chunk body fn(i0, i1, slot). The body outlives
/// the parallel_for call that views it, so dispatch neither copies nor
/// heap-allocates a closure, whatever its size.
class BodyRef {
 public:
  template <typename F>
  explicit BodyRef(F& fn)
      : obj_(const_cast<void*>(static_cast<const void*>(&fn))),
        call_([](void* obj, std::int64_t i0, std::int64_t i1, int slot) {
          (*static_cast<F*>(obj))(i0, i1, slot);
        }) {}

  void operator()(std::int64_t i0, std::int64_t i1, int slot) const {
    call_(obj_, i0, i1, slot);
  }

 private:
  void* obj_;
  void (*call_)(void*, std::int64_t, std::int64_t, int);
};

/// Type-erased core: splits [begin, end) into at most max_threads()
/// contiguous chunks of at least `grain` items and runs fn(i0, i1, slot)
/// for each, slot in [0, max_slots()). Runs inline when only one chunk
/// results, when called from inside a parallel region, or on a 1-thread
/// pool. Exceptions from bodies are rethrown on the calling thread.
void parallel_for_impl(std::int64_t begin, std::int64_t end,
                       std::int64_t grain, BodyRef fn);
}  // namespace detail

/// Parallel map over [begin, end). `fn` is either fn(i0, i1) or
/// fn(i0, i1, slot); each invocation covers the contiguous item range
/// [i0, i1). `grain` is the minimum number of items per chunk — pick it so
/// one chunk amortizes the dispatch (a fixed constant per call site, not a
/// function of max_threads()).
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Fn&& fn) {
  if constexpr (std::is_invocable_v<Fn&, std::int64_t, std::int64_t, int>) {
    detail::parallel_for_impl(begin, end, grain, detail::BodyRef(fn));
  } else {
    static_assert(std::is_invocable_v<Fn&, std::int64_t, std::int64_t>,
                  "parallel_for body must be fn(i0, i1) or fn(i0, i1, slot)");
    auto body = [&fn](std::int64_t i0, std::int64_t i1, int) { fn(i0, i1); };
    detail::parallel_for_impl(begin, end, grain, detail::BodyRef(body));
  }
}

}  // namespace t2c::par
