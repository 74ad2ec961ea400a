// Live telemetry plane — pillar 5 of the observability layer (obs/;
// DESIGN.md §3.10).
//
// The registry/profiler/trace pillars aggregate *cumulatively* and dump
// once at process exit. Long-running inference (the `t2c_serve` direction)
// needs the opposite: what happened in the last 10 seconds, scraped while
// the process runs. This module provides that substrate:
//
//   producer side   the per-thread event rings of obs/flight.h — each
//                   event is written once, whichever consumer is on;
//   consumer side   TelemetryHub reads every ring from its own cursor (a
//                   background thread every tick, plus on demand per
//                   scrape) into log-bucketed sliding-window histograms
//                   (ring of sub-window buckets) giving p50/p95/p99/rate
//                   over the last 10 s / 1 m / 5 m per series; events the
//                   hub lagged behind are counted as dropped;
//   attribution     RequestScope RAII ids stamped on every event (and on
//                   trace spans), so tail latency and saturation attach to
//                   a request, not the process;
//   liveness        a stall watchdog reading the rings' step vitals,
//                   backing the exporter's /healthz.
//
// Collection is gated on `telemetry_enabled()` (default off) with the same
// one-relaxed-load discipline as metrics/trace/profile: the disabled
// deploy hot path never touches a ring (pinned by the alloc-count tests).
// All timestamps come from the repo-wide monotonic clock
// (util/stopwatch.h) — never the wall clock.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "util/stopwatch.h"

namespace t2c::obs {

inline bool telemetry_enabled() { return tier_on(kTierTelemetry); }
/// Normally flipped by TelemetryHub::start()/stop(); exposed for tests
/// that exercise the record path without an aggregator thread.
inline void set_telemetry_enabled(bool on) { set_tier(kTierTelemetry, on); }

/// True while either consumer of the event rings is on — the flight
/// recorder or the telemetry plane. Producers gate their one
/// flight_record() per event on this.
inline bool event_ring_enabled() { return tier_on(kRingTiers); }

// ---- request attribution ----

/// Id of the innermost live RequestScope on this thread; 0 outside any.
std::uint64_t current_request();

/// RAII request context: assigns a process-unique id, makes it the
/// calling thread's current request, and records a kRequestStart event on
/// entry and the request's wall latency as a kRequestDone event on exit
/// (when event_ring_enabled()).
/// Scopes nest; the previous id is restored on exit.
class RequestScope {
 public:
  RequestScope();
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t prev_ = 0;
  std::int64_t t0_ns_ = 0;
  int flight_slot_ = -1;  ///< active-request table slot (obs/flight.h)
};

// ---- sliding windows ----

/// Digest of one series over one trailing window. Percentiles come from
/// log-bucketed counts (geometric bucket edges, ~19% wide), interpolated
/// inside the winning bucket — coarse but stable and allocation-bounded.
struct WindowStats {
  std::int64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double rate_per_s = 0.0;       ///< count / window span
  std::int64_t start_ns = 0;     ///< window [start, end) on MonotonicClock
  std::int64_t end_ns = 0;
};

/// Log-bucketed histogram over a ring of sub-windows. observe() lands the
/// value in the sub-window holding its timestamp; digest(n) sums the
/// trailing n sub-windows. Sub-windows are 5 s wide and 60 are kept, so
/// the supported windows are 10 s (2), 1 m (12), and 5 m (60). Not
/// thread-safe: the hub serializes all access (aggregator + scrapes).
class SlidingWindow {
 public:
  static constexpr int kSubWindows = 60;
  static constexpr std::int64_t kSubNs = 5'000'000'000;  // 5 s
  static constexpr int kBuckets = 112;  ///< 1 us .. ~100 s, ratio 2^(1/4)

  void observe(std::int64_t t_ns, double value_ms);

  /// Digest over the trailing `nsub` sub-windows ending at `now_ns`.
  WindowStats digest(int nsub, std::int64_t now_ns) const;

  std::int64_t total_count() const { return total_count_; }
  double total_sum() const { return total_sum_; }

  /// Bucket index for a millisecond value (exposed for tests).
  static int bucket_of(double value_ms);
  /// [lo, hi) edge of bucket `i` in milliseconds.
  static double bucket_lo(int i);
  static double bucket_hi(int i);

  /// Per-bucket counts merged over the trailing `nsub` sub-windows — the
  /// raw histogram behind digest(), used to render Prometheus
  /// `le`-bucketed histogram families with exemplars.
  std::array<std::uint64_t, kBuckets> digest_buckets(
      int nsub, std::int64_t now_ns) const;

 private:
  struct Sub {
    std::int64_t start_ns = -1;  ///< -1 = slot empty
    std::int64_t count = 0;
    double sum = 0.0;
    std::array<std::uint32_t, kBuckets> buckets{};
  };
  std::array<Sub, kSubWindows> subs_{};
  std::int64_t total_count_ = 0;
  double total_sum_ = 0.0;
};

// ---- snapshots ----

/// One per-op step on a request's causal trail (bounded; see kTrailCap).
struct TrailStep {
  std::uint32_t key = 0;   ///< interned series name (flight_key)
  std::int64_t t_ns = 0;   ///< completion timestamp
  double ms = 0.0;         ///< step latency
};

/// One completed request's attribution record. `trail` is only retained
/// for requests held in the slowest-per-window reservoir — recent-FIFO
/// copies carry an empty trail to keep snapshots cheap.
struct RequestRecord {
  std::uint64_t id = 0;
  double latency_ms = 0.0;
  std::int64_t steps = 0;      ///< plan steps executed under this request
  std::int64_t saturated = 0;  ///< clipped values attributed to it
  std::int64_t done_ns = 0;    ///< completion time; 0 = still in flight
  std::vector<TrailStep> trail;  ///< per-op events, oldest first
};

/// An OpenMetrics exemplar: the most recent request-attributed
/// observation that landed in a histogram bucket.
struct TeleExemplar {
  std::uint64_t req = 0;  ///< 0 = bucket has no exemplar
  double value_ms = 0.0;
  std::int64_t t_ns = 0;
};

/// Point-in-time digest of the whole plane, taken under the hub mutex
/// after an on-demand read of every ring — a scrape never waits for the
/// next aggregator tick.
struct TelemetrySnapshot {
  struct Series {
    std::string name;
    std::int64_t total_count = 0;
    double total_sum = 0.0;
    WindowStats w10s;
    WindowStats w1m;
    WindowStats w5m;
    /// 5 m per-bucket counts + exemplars, filled only for the exposition
    /// series ("deploy.step.latency", "request.latency"); empty otherwise.
    std::vector<std::uint64_t> buckets_5m;
    std::vector<TeleExemplar> exemplars;  ///< parallel to buckets_5m
  };
  std::vector<Series> series;  ///< sorted by name
  std::int64_t events_total = 0;    ///< ring events read, monotone
  /// Ring events overwritten (or reset away) before the hub read them,
  /// monotone; events_total + dropped_total = events pushed since clear().
  std::int64_t dropped_total = 0;
  std::uint64_t requests_started = 0;
  std::uint64_t requests_done = 0;
  std::vector<RequestRecord> recent_requests;  ///< newest last, bounded
  /// Slowest completed requests of the trailing 5 m, latency-descending,
  /// full trails retained (the tail-latency exemplar reservoir).
  std::vector<RequestRecord> slow_requests;
  std::int64_t taken_ns = 0;  ///< mono_now_ns() of the snapshot
};

/// The plane's owner: ring cursors, aggregator thread, window store and
/// the request-attribution table. A pure reader of the event rings.
class TelemetryHub {
 public:
  /// Starts the aggregator thread and enables collection. Idempotent.
  /// Events recorded before start() (flight-recorder history) are skipped.
  void start();
  /// Disables collection, reads every ring one last time, and joins the
  /// aggregator. Idempotent.
  void stop();
  bool running() const;

  /// Reads all rings and digests every series (on-demand; also what the
  /// aggregator does every tick).
  TelemetrySnapshot snapshot();

  /// Watchdog: false when steps have run but none completed within
  /// `deadline_ms` (a stalled executor); true while idle (no step ever)
  /// or fresh. `ago_ms` (optional) receives the age of the newest step
  /// event in any ring (FlightStats::last_step_ns).
  bool healthy(double deadline_ms, double* ago_ms = nullptr) const;
  void set_stall_deadline_ms(double ms);
  double stall_deadline_ms() const;

  /// Fatal escalation hook: when set, the aggregator invokes it (outside
  /// the hub lock) the first tick it sees a stalled executor. Wired to
  /// obs::crash_escalate_stall by `t2c_cli --stall-fatal`; the action is
  /// expected not to return.
  void set_stall_action(std::function<void(double age_ms)> action);

  /// Full detail for one request: searched in the slow reservoir (trail
  /// retained), then the recent FIFO, then the in-flight table. Returns
  /// false when the id is unknown; `*active` (optional) reports whether
  /// the request is still in flight.
  bool request_detail(std::uint64_t id, RequestRecord* out,
                      bool* active = nullptr);

  // Lock-free vitals, safe from a signal handler (plain atomic loads);
  // the crash path builds its bundle's "metrics" section from these.
  std::uint64_t requests_started_count() const {
    return requests_started_.load(std::memory_order_relaxed);
  }
  std::uint64_t requests_done_count() const {
    return requests_done_.load(std::memory_order_relaxed);
  }

  /// Drops every window, request record, and counter, and moves every
  /// ring cursor to its head (test isolation). Enabled state is
  /// preserved; the rings' step vitals are flight_clear_for_test()'s.
  void clear();

  // Request start/done counters live outside the ring: they are bumped by
  // RequestScope directly, so a dropped kRequestDone event loses only its
  // latency sample — the started/done/active arithmetic stays exact.
  void note_request_started();
  void note_request_done();

 private:
  friend TelemetryHub& telemetry();
  TelemetryHub();  ///< reads T2C_STALL_MS for the watchdog default

  void aggregate_locked(const FlightEvent& e);
  void read_rings_locked();
  void skip_backlog_locked();
  void sample_proc_gauges();
  void aggregator_main();

  mutable std::mutex mu_;
  std::vector<std::uint64_t> cursors_;  ///< per ring registry slot
  std::vector<FlightEvent> scratch_;    ///< read buffer, reused every tick
  std::map<std::uint32_t, SlidingWindow> windows_;  ///< by flight_key id
  std::map<std::uint64_t, RequestRecord> active_requests_;
  std::vector<RequestRecord> recent_requests_;  ///< bounded FIFO
  std::vector<RequestRecord> slow_requests_;    ///< top-k, 5 m window
  std::array<TeleExemplar, SlidingWindow::kBuckets> step_exemplars_{};
  std::array<TeleExemplar, SlidingWindow::kBuckets> request_exemplars_{};
  std::function<void(double)> stall_action_;  ///< under mu_
  std::int64_t events_total_ = 0;
  std::int64_t dropped_total_ = 0;
  std::atomic<std::uint64_t> requests_started_{0};
  std::atomic<std::uint64_t> requests_done_{0};
  std::atomic<double> stall_deadline_ms_{10000.0};
  std::atomic<bool> running_{false};
  bool stop_requested_ = false;       ///< under mu_, woken via cv_
  std::condition_variable cv_;
  std::thread aggregator_;
};

/// The process-wide hub that reads the event rings.
TelemetryHub& telemetry();

}  // namespace t2c::obs
