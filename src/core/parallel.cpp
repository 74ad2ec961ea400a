#include "core/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace t2c::par {

namespace {

/// Set while a thread executes a parallel_for body; nested calls run inline
/// instead of deadlocking on the (busy) pool.
thread_local bool g_in_parallel = false;

int default_threads() {
  if (const char* env = std::getenv("T2C_THREADS")) {
    const int n = std::atoi(env);
    check(n >= 1 && n <= 1024, "T2C_THREADS must be in [1, 1024]");
    return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 1024U));
}

/// Persistent pool: nthreads-1 sleeping workers plus the calling thread.
/// One region at a time: run() publishes a job under the mutex, every
/// worker wakes, executes its part (possibly empty) and acknowledges; the
/// caller executes part 0 and waits for all acknowledgements.
class Pool {
 public:
  Pool() { start(default_threads()); }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
  }

  int threads() const { return nthreads_; }

  void resize(int n) {
    n = std::max(1, n);
    if (n == nthreads_) return;
    const std::lock_guard<std::mutex> run_lock(run_mu_);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
    stop_ = false;
    generation_ = 0;  // fresh workers start with seen == 0
    pending_ = 0;
    job_ = nullptr;
    job_parts_ = 0;
    start(n);
  }

  /// Runs fn(part) for part in [0, nparts); nparts <= threads(). Part p
  /// executes on worker p (part 0 on the caller). Rethrows the first body
  /// exception after every part finished. Callers serialize on run_mu_:
  /// concurrent pooled regions (two serving threads inside run_int) queue
  /// up instead of clobbering each other's job state — the pool really is
  /// one region at a time.
  void run(int nparts, const std::function<void(int)>& fn) {
    const std::lock_guard<std::mutex> run_lock(run_mu_);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      job_ = &fn;
      job_parts_ = nparts;
      pending_ = nthreads_ - 1;
      err_ = nullptr;
      ++generation_;
    }
    cv_work_.notify_all();
    try {
      fn(0);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!err_) err_ = std::current_exception();
    }
    std::exception_ptr err;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait(lock, [&] { return pending_ == 0; });
      job_ = nullptr;
      err = err_;
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  void start(int n) {
    nthreads_ = n;
    workers_.reserve(static_cast<std::size_t>(n - 1));
    for (int w = 1; w < n; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
  }

  void worker_main(int part) {
    // Register the trace track once per thread: "M" metadata in the
    // exported JSON names every pool worker even if tracing turns on
    // after the pool was built.
    const std::string wname = "pool.worker." + std::to_string(part);
    obs::name_current_thread(wname);
    // Eagerly create this worker's event ring so the first recorded event
    // inside a pooled region never allocates (and a postmortem can name
    // the thread).
    obs::flight_register_thread(wname.c_str());
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      int nparts = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = job_;
        nparts = job_parts_;
      }
      if (part < nparts) {
        try {
          (*fn)(part);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mu_);
          if (!err_) err_ = std::current_exception();
        }
      }
      bool last = false;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        last = --pending_ == 0;
      }
      if (last) cv_done_.notify_all();
    }
  }

  std::mutex run_mu_;  ///< serializes whole regions across caller threads
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  int nthreads_ = 1;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  const std::function<void(int)>* job_ = nullptr;
  int job_parts_ = 0;
  std::exception_ptr err_;
};

Pool& pool() {
  static Pool p;
  return p;
}

}  // namespace

int max_threads() { return pool().threads(); }

int max_slots() { return pool().threads(); }

void set_max_threads(int n) {
  check(!g_in_parallel, "set_max_threads inside a parallel region");
  pool().resize(n);
}

namespace detail {

namespace {

/// Bucket edges for the slowest/mean chunk ratio: 1.0 is a perfectly
/// balanced region, the tail buckets catch pathological splits.
const std::vector<double>& imbalance_buckets() {
  static const std::vector<double> kBuckets = {1.0, 1.05, 1.1, 1.25, 1.5,
                                               2.0, 3.0,  5.0, 10.0};
  return kBuckets;
}

}  // namespace

void parallel_for_impl(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, int)>& fn) {
  const std::int64_t range = end - begin;
  if (range <= 0) return;
  const std::int64_t g = std::max<std::int64_t>(1, grain);
  const std::int64_t max_parts = (range + g - 1) / g;
  const int nparts = static_cast<int>(
      std::min<std::int64_t>(pool().threads(), max_parts));
  if (nparts <= 1 || g_in_parallel) {
    fn(begin, end, 0);
    return;
  }
  const std::int64_t base = range / nparts;
  const std::int64_t rem = range % nparts;
  const auto chunk_of = [&](int part, std::int64_t& i0, std::int64_t& i1) {
    i0 = begin + part * base + std::min<std::int64_t>(part, rem);
    i1 = i0 + base + (part < rem ? 1 : 0);
  };
  // Pooled dispatch is the instrumented boundary: per-worker busy spans
  // ("X" on each worker's track), pool.occupancy counter samples, and
  // per-region chunk stats feeding pool.* metrics. With the PMU on, every
  // chunk that runs on a pool worker (part >= 1; part 0 executes on the
  // caller, inside the caller's own bracket) reads its thread's counter
  // group before/after and lands the delta in the worker accumulator so
  // the executor can attribute it to the current step (DESIGN.md §3.9).
  // Nested/inline regions stay uninstrumented — they run inside a chunk
  // that is already accounted for. Cost when everything is off: the three
  // relaxed loads.
  const bool met = obs::metrics_enabled();
  const bool trace = obs::trace_enabled();
  const bool pmu = obs::pmu_enabled();
  if (obs::event_ring_enabled()) {
    // One black-box event per pooled region (caller side, before the
    // fan-out): a crash mid-region shows which thread was dispatching and
    // how wide. Static key: interning is cold and happens exactly once.
    static const std::uint32_t kRegionKey = obs::flight_key("pool.region");
    obs::flight_record(obs::FlightKind::kPoolRegion, kRegionKey,
                       static_cast<double>(nparts));
  }
  if (!met && !trace && !pmu) {
    pool().run(nparts, [&](int part) {
      std::int64_t i0 = 0;
      std::int64_t i1 = 0;
      chunk_of(part, i0, i1);
      g_in_parallel = true;
      try {
        fn(i0, i1, part);
      } catch (...) {
        g_in_parallel = false;
        throw;
      }
      g_in_parallel = false;
    });
    return;
  }
  std::vector<double> chunk_ms(static_cast<std::size_t>(nparts), 0.0);
  if (trace) {
    obs::tracer().counter("pool.occupancy", "pool",
                          static_cast<double>(nparts));
  }
  pool().run(nparts, [&](int part) {
    std::int64_t i0 = 0;
    std::int64_t i1 = 0;
    chunk_of(part, i0, i1);
    const std::int64_t ts = trace ? obs::tracer().now_us() : 0;
    const bool sample_pmu = pmu && part != 0;
    obs::PmuCounts pmu0;
    if (sample_pmu) obs::thread_pmu().read(pmu0);
    Stopwatch sw;
    g_in_parallel = true;
    try {
      fn(i0, i1, part);
    } catch (...) {
      g_in_parallel = false;
      throw;
    }
    g_in_parallel = false;
    chunk_ms[static_cast<std::size_t>(part)] = sw.millis();
    if (sample_pmu) {
      obs::PmuCounts pmu1;
      obs::thread_pmu().read(pmu1);
      obs::pmu_worker_acc().add(obs::pmu_delta(pmu0, pmu1));
    }
    if (trace) {
      obs::TraceRecorder::Event e;
      e.name = "chunk";
      e.cat = "pool";
      e.ts_us = ts;
      e.dur_us = obs::tracer().now_us() - ts;
      e.tid = obs::trace_tid();
      obs::tracer().record(std::move(e));
    }
  });
  if (trace) obs::tracer().counter("pool.occupancy", "pool", 0.0);
  if (met) {
    double total = 0.0;
    double slowest = 0.0;
    for (const double ms : chunk_ms) {
      total += ms;
      slowest = std::max(slowest, ms);
    }
    const double mean = total / static_cast<double>(nparts);
    obs::metrics().counter("pool.regions").add(1);
    obs::metrics().counter("pool.chunks").add(nparts);
    // The region's wall time is its critical path — the slowest chunk.
    obs::metrics().histogram("pool.region_ms").observe(slowest);
    if (mean > 0.0) {
      obs::metrics()
          .histogram("pool.imbalance", imbalance_buckets())
          .observe(slowest / mean);
    }
  }
}

}  // namespace detail

}  // namespace t2c::par
