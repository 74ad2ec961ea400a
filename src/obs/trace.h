// Trace spans — pillar 3 of the observability layer (obs/).
//
// RAII spans record wall-clock intervals into a global recorder that
// exports Chrome trace_event JSON, directly loadable in chrome://tracing
// or https://ui.perfetto.dev. The recorder is multi-track: every event
// carries a process id and a per-thread track id (`trace_tid()`), "M"
// metadata events name the process and each registered thread (pool
// workers register as `pool.worker.N`), and "C" counter events chart
// time-series values (arena bytes, pool occupancy, saturation) alongside
// the spans. Collection is gated on `trace_enabled()` (default off); a
// disabled span costs one relaxed load per constructor. Spans own their
// names (coarse but unbounded: `train.epoch.N`); plan steps, pool chunks
// and per-step counters carry an interned name (profile.h) resolved only
// at export, so recording them never builds a string.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/tier.h"
#include "util/stopwatch.h"

namespace t2c::obs {

struct Name;

inline bool trace_enabled() { return tier_on(kTierTrace); }
/// Enabling also names the calling thread "main" when it has no name yet,
/// so single-threaded traces come out fully labelled.
void set_trace_enabled(bool on);

/// Stable per-thread track id (1-based, assigned on first use). The id a
/// thread gets depends on registration order, not on anything the traced
/// workload computes, so traces of the same run shape line up.
int trace_tid();

/// Registers a display name for the calling thread's track, emitted as a
/// Chrome "M" thread_name metadata event on export. First name wins;
/// names survive clear() (thread identity outlives any one trace).
void name_current_thread(const std::string& name);

class TraceRecorder {
 public:
  struct Event {
    std::string name;         ///< owned name; empty when `key` names it
    const Name* key = nullptr;  ///< interned name (steps, chunks, counters)
    const char* cat = "t2c";  ///< static category string
    char ph = 'X';            ///< 'X' complete span or 'C' counter sample
    std::int64_t ts_us = 0;   ///< start, microseconds since the epoch mark
    std::int64_t dur_us = 0;  ///< duration in microseconds ('X' only)
    int tid = 1;              ///< thread track (trace_tid())
    double value = 0.0;       ///< counter sample ('C' only)
    std::uint64_t req = 0;    ///< request id ('X' only; 0 = unattributed)
  };

  /// Microseconds since the recorder epoch (reset by clear()). The
  /// timebase is mono_now_ns(), the repo-wide monotonic clock the
  /// exporter's windows also use (DESIGN.md §3.10).
  std::int64_t now_us() const { return us_at(mono_now_ns()); }
  /// The recorder time of a mono_now_ns() reading.
  std::int64_t us_at(std::int64_t mono_ns) const;

  void record(Event e);

  /// Records one "C" counter sample at now_us() on the calling thread's
  /// track. Callers gate on trace_enabled().
  void counter(const Name* key, const char* cat, double value);

  std::size_t size() const;
  /// Event `i` in record order, its interned name (if any) resolved.
  Event event(std::size_t i) const;

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — the Chrome trace_event
  /// "JSON object format". Metadata ("M") events naming the process and
  /// every thread track are synthesized first (threads that never called
  /// name_current_thread get a "thread.N" fallback so every tid in the
  /// document is named), then the recorded "X"/"C" events.
  std::string to_json() const;
  void write_json(const std::string& path) const;

  /// Drops all events and re-zeroes the time origin. Thread names persist.
  void clear();

 private:
  friend void name_current_thread(const std::string& name);

  mutable std::mutex mu_;
  std::atomic<std::int64_t> epoch_ns_{mono_now_ns()};
  std::vector<Event> events_;
  std::vector<std::pair<int, std::string>> thread_names_;  ///< tid -> name
};

/// The process-wide recorder all spans write to.
TraceRecorder& tracer();

/// RAII interval: records [construction, destruction) as one complete
/// event on the calling thread's track when tracing was enabled at
/// construction time.
class TraceSpan {
 public:
  /// `cat` must be a static string (a literal).
  explicit TraceSpan(std::string name, const char* cat = "t2c");
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string name_;
  const char* cat_;
  std::int64_t start_us_ = -1;  ///< -1 = span inactive (tracing was off)
};

}  // namespace t2c::obs
