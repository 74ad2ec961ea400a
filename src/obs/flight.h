// The event ring: black-box flight recorder and telemetry feed
// (DESIGN.md §3.10, §3.13).
//
// Every producer (plan steps, requests, saturation counts, pool regions)
// writes each event once, into its own thread's overwriting ring (newest
// wins, oldest evicted). Two consumers read the same rings:
//   * the crash/stall postmortem (crash.h) reads the newest events of every
//     thread — from another thread or inside a signal handler, mid-push;
//   * the telemetry hub (telemetry.h) reads each ring from a cursor while
//     producers write, counting the events it lagged behind as dropped.
// Each slot carries a seqlock sequence number published after the payload
// (relaxed-atomic words), so a concurrent reader detects and skips slots
// torn by an in-flight push instead of emitting garbage.
//
// Everything the crash handler touches is engineered for async-signal
// safety:
//   * rings and the registry are fixed-size, allocated at registration
//     time (cold) and intentionally never freed — a handler can always
//     walk them without coordination;
//   * series names live in a fixed table of fixed-width buffers published
//     with release stores — flight_key_name() is lock-free and never
//     allocates (interning under flight_key() is the only cold, locking
//     op);
//   * the active-request table is a fixed array of atomic slots claimed
//     and released by RequestScope — exact, scannable from a handler.
//
// Producers record while either consumer is on (event_ring_enabled() in
// telemetry.h); the disabled hot path is one tier-word load, pinned by the
// alloc-count tests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/tier.h"

namespace t2c::obs {

inline bool flight_enabled() { return tier_on(kTierFlight); }
/// Flipped on by install_crash_handlers(); exposed for tests and for
/// callers that want the recorder without the signal handlers.
inline void set_flight_enabled(bool on) { set_tier(kTierFlight, on); }

/// What one event records. Step, request-done and saturation events feed
/// the telemetry windows too; request starts, pool regions and marks are
/// for the black box, so a postmortem shows the causal shape of the final
/// milliseconds, not just step latencies.
enum class FlightKind : std::uint8_t {
  kStep = 0,
  kRequestStart = 1,
  kRequestDone = 2,
  kSaturation = 3,
  kPoolRegion = 4,
  kMark = 5,
};
/// Stable JSON spelling ("step", "request_start", ...).
const char* flight_kind_name(FlightKind k);

/// One fixed-size event; no owned memory (name is an interned key).
struct FlightEvent {
  std::int64_t t_ns = 0;   ///< mono_now_ns() at record time
  double value = 0.0;      ///< latency ms, count, or kind-specific payload
  std::uint64_t req = 0;   ///< current_request() at record time; 0 = none
  std::uint32_t key = 0;   ///< interned name (flight_key)
  FlightKind kind = FlightKind::kMark;
};

/// Sentinel for "no key" (e.g. the stall watchdog before any step ran).
constexpr std::uint32_t kFlightNoKey = 0xFFFFFFFFu;

/// Interns `name` into the fixed key table, returning a stable id. Cold
/// path (takes a lock): call at plan-compile / handle-resolve time, never
/// per event. Names longer than 63 bytes are truncated; a full table
/// returns the shared overflow key 0 ("?"). The same name always returns
/// the same id.
std::uint32_t flight_key(const char* name);

/// Resolves an interned id back to its name. Lock-free, allocation-free,
/// async-signal-safe; unknown ids (incl. kFlightNoKey) resolve to "?".
const char* flight_key_name(std::uint32_t id);

/// Per-thread overwriting ring. Single producer (the owning thread); any
/// number of concurrent readers, which validate per-slot sequence numbers
/// and skip slots torn by an in-flight push.
class FlightRing {
 public:
  static constexpr std::size_t kCapacity = 2048;  // power of two

  /// Owner thread only. A kStep event also updates the ring's step vitals
  /// (steps(), last_step_ns(), last_step_key()) read by the watchdog.
  void push(const FlightEvent& e);

  /// Copies up to `max_out` of the newest events into `out`, oldest first.
  /// Safe to call from any thread / signal context; torn slots are
  /// skipped. Returns the number copied.
  std::size_t read_last(FlightEvent* out, std::size_t max_out) const;

  /// Draining read: copies the events pushed since `*cursor` that are
  /// still intact into `out` (room for kCapacity events), oldest first,
  /// and advances `*cursor` to the current head. Events the reader lagged
  /// behind — overwritten, torn mid-read, or discarded by a reset — are
  /// added to `*lost`, so copied + lost = pushes since the cursor.
  std::size_t read_since(std::uint64_t* cursor, FlightEvent* out,
                         std::uint64_t* lost) const;

  /// Absolute push count, the position a read_since() cursor starts from.
  std::uint64_t head() const { return head_.load(std::memory_order_acquire); }
  /// Pushes since the last reset.
  std::uint64_t pushes() const {
    const std::uint64_t b = base_.load(std::memory_order_acquire);
    return head() - b;
  }
  /// Events evicted by overwrite since the last reset.
  std::uint64_t overwritten() const {
    const std::uint64_t n = pushes();
    return n > kCapacity ? n - kCapacity : 0;
  }

  /// kStep events pushed since the last reset.
  std::uint64_t steps() const {
    return steps_.load(std::memory_order_relaxed);
  }
  /// Timestamp of the newest kStep event; -1 before any.
  std::int64_t last_step_ns() const {
    return last_step_ns_.load(std::memory_order_relaxed);
  }
  /// Key of the newest kStep event; kFlightNoKey before any.
  std::uint32_t last_step_key() const {
    return last_step_key_.load(std::memory_order_relaxed);
  }

  const char* name() const { return name_; }
  void set_name(const char* n);

  /// Reuse handshake: a ring belongs to exactly one live thread. Rings
  /// start claimed (created for the registering thread); thread exit
  /// releases, and a later thread may claim the slot instead of growing
  /// the registry.
  bool try_claim() {
    bool expect = false;
    return in_use_.compare_exchange_strong(expect, true,
                                           std::memory_order_acq_rel);
  }
  void release() { in_use_.store(false, std::memory_order_release); }

  /// Test isolation only: forgets every event pushed so far and the step
  /// vitals. Head stays monotone, so a reader's cursor never passes it;
  /// the forgotten events count as lost to the next read_since().
  void reset_for_test();

 private:
  // seq == 0: empty; odd: write in progress; even > 0: published, the
  // payload belongs to push number (seq/2 - 1). The payload is relaxed
  // atomic words (t_ns, value bits, req, key | kind << 32) so a reader
  // racing the owner's next lap reads torn words, never a data race.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[4];
  };
  /// Copies the intact events of pushes [from, to) into `out`.
  std::size_t copy_range(std::uint64_t from, std::uint64_t to,
                         FlightEvent* out) const;

  Slot slots_[kCapacity];
  std::atomic<std::uint64_t> head_{0};  ///< producer-owned push count
  std::atomic<std::uint64_t> base_{0};  ///< head at the last reset
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::int64_t> last_step_ns_{-1};
  std::atomic<std::uint32_t> last_step_key_{kFlightNoKey};
  std::atomic<bool> in_use_{true};      ///< owned by a live thread
  char name_[32] = "thread";
};

/// Records one event into the calling thread's ring, creating and
/// registering the ring on first use (cold). Callers gate on
/// event_ring_enabled() (telemetry.h). Never blocks, never allocates after
/// registration.
void flight_record(FlightKind kind, std::uint32_t key, double value);

/// Eagerly creates/names the calling thread's ring so the first recorded
/// event is allocation-free. Pool workers call this at startup. Returns
/// the ring (nullptr when the registry is full).
FlightRing* flight_register_thread(const char* name = nullptr);

/// The ring registry, for readers that walk every ring: slots [0,
/// flight_ring_count()) in registration order; flight_ring(i) is nullptr
/// while slot i is still being filled. Rings are never freed, so the
/// pointers stay valid. Lock-free, async-signal-safe.
int flight_ring_count();
FlightRing* flight_ring(int i);

// ---- active request table (exact, signal-safe to read) ----

/// Claims a slot for request `id`; returns the slot index or -1 when the
/// table is full (the request is then simply not listed in a bundle).
int flight_request_begin(std::uint64_t id);
/// Releases a slot returned by flight_request_begin (-1 is a no-op).
void flight_request_end(int slot);

struct FlightActiveRequest {
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
};
/// Copies the live request table into `out` (up to `cap`); returns the
/// count. Lock-free, async-signal-safe.
std::size_t flight_active_requests(FlightActiveRequest* out, std::size_t cap);

// ---- whole-recorder views (signal-safe) ----

struct FlightStats {
  std::uint64_t recorded = 0;     ///< total pushes across all rings
  std::uint64_t overwritten = 0;  ///< total evictions across all rings
  std::uint64_t steps = 0;        ///< kStep events recorded
  int rings = 0;                  ///< registered rings
  int lost_threads = 0;           ///< threads refused a ring (table full)
  std::int64_t last_step_ns = -1;           ///< newest kStep, any thread
  std::uint32_t last_step_key = kFlightNoKey;  ///< its key

  /// The recorder's lost history: overwritten + lost-thread events, in
  /// postmortem bundles and /healthz 503 bodies.
  std::uint64_t dropped() const {
    return overwritten + static_cast<std::uint64_t>(lost_threads);
  }
};
FlightStats flight_stats();

/// Most events one flight_collect() returns (the postmortem bundle's
/// cap). It also sizes the collector's stack scratch, which runs on the
/// crash handler's alternate stack.
constexpr std::size_t kFlightCollectMax = 256;

/// One event tagged with its producer thread's ring name.
struct FlightTaggedEvent {
  FlightEvent e;
  const char* thread = "";  ///< points into the ring; never freed
};
/// Gathers the newest events across every ring into `out`, sorted oldest
/// first, keeping at most `cap` (clamped to kFlightCollectMax; the newest
/// ones win). Lock-free, allocation-free, async-signal-safe. Returns the
/// count.
std::size_t flight_collect(FlightTaggedEvent* out, std::size_t cap);

/// Test isolation: resets every ring (events and step vitals), the
/// lost-thread count and the active-request table. Caller must guarantee
/// producers are quiescent.
void flight_clear_for_test();

}  // namespace t2c::obs
