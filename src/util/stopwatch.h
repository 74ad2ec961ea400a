// Minimal wall-clock stopwatch used by trainers and bench harnesses, plus
// the one monotonic clock every timing facility in this repo shares.
//
// Clock discipline (DESIGN.md §3.10): Stopwatch, TraceRecorder timestamps,
// and the telemetry plane's event/window timestamps all derive from
// MonotonicClock (std::chrono::steady_clock). Mixing clocks would let a
// wall-clock adjustment tear a sliding window or produce a trace whose
// spans disagree with the exporter's rates. The trace recorder and the
// event rings stamp with mono_now_ns(), and telemetry.cpp static_asserts
// that this alias is steady, so a drive-by clock swap fails to compile
// instead of corrupting artifacts.
#pragma once

#include <chrono>
#include <cstdint>

namespace t2c {

/// The single monotonic clock for traces, stopwatches, and telemetry.
using MonotonicClock = std::chrono::steady_clock;

/// Nanoseconds on MonotonicClock since an arbitrary (per-boot) origin.
/// Never decreases within a process; the telemetry plane keys its event
/// rings and window boundaries off this value.
std::int64_t mono_now_ns();

class Stopwatch {
 public:
  Stopwatch() { reset(); }

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const;

  /// Elapsed milliseconds.
  double millis() const { return seconds() * 1e3; }

 private:
  using Clock = MonotonicClock;
  Clock::time_point start_;
};

}  // namespace t2c
