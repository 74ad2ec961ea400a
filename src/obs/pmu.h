// Hardware performance-counter subsystem (DESIGN.md §3.9).
//
// A PerfCounterGroup wraps one perf_event_open(2) event group — cycles
// (leader), instructions, cache-references, cache-misses, branch-misses,
// plus up to kMaxRawEvents raw events from T2C_PMU_RAW — opened *per
// thread* (the main thread and every pool worker own their own group) and
// read with a single group read() so all counters come from the same
// instant. The planned executor brackets every step and core/parallel
// brackets every pooled chunk, which lets the profiler attribute measured
// IPC, cache-miss rate, and measured-vs-modeled bytes to each op key
// alongside the modeled roofline columns.
//
// Three tiers, probed once per set_pmu_mode() call:
//   kHardware  full PMU group via perf_event_open; counts are
//              multiplex-scaled by time_enabled/time_running.
//   kCpuTime   perf_event_open denied (perf_event_paranoid, seccomp,
//              missing PMU in VMs/containers) — per-thread CPU time via
//              clock_gettime(CLOCK_THREAD_CPUTIME_ID) only.
//   kDisabled  collection off; the hot paths pay one relaxed load and
//              never allocate (same guarantee as metrics/trace/profile).
//
// Attribution rules (DESIGN.md §3.9): a step's sample is the main-thread
// delta read around the step plus the pooled-worker chunk deltas that
// landed in the process-wide accumulator while the step ran. Part 0 of a
// pooled region executes on the calling thread and is already inside the
// caller's bracket, so only parts >= 1 feed the accumulator. Concurrent
// run_int() calls share the accumulator; per-op PMU attribution is exact
// for a single in-flight run and approximate across overlapping runs.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/tier.h"

namespace t2c::obs {

/// What the user asked for (t2c_cli --pmu MODE, default auto).
enum class PmuMode { kOff, kAuto, kCpuTime, kHardware };

/// What the probe actually got.
enum class PmuTier { kDisabled, kCpuTime, kHardware };

inline bool pmu_enabled() { return tier_on(kTierPmu); }

/// Applies a mode: probes the tier (kAuto/kHardware try the full hardware
/// group on the calling thread and degrade to kCpuTime when the syscall
/// or any essential event is unavailable), flips the global enable flag,
/// and bumps the generation so every thread re-opens its group lazily.
void set_pmu_mode(PmuMode mode);
PmuMode pmu_mode();

/// The tier resolved by the last set_pmu_mode() probe.
PmuTier pmu_tier();
const char* pmu_tier_name(PmuTier tier);

/// Parses "off" / "auto" / "cputime" / "hw"|"hardware"; throws on others.
PmuMode parse_pmu_mode(const char* text);

/// Raw events configured via T2C_PMU_RAW ("r11,rc5", hex perf configs).
constexpr int kMaxRawEvents = 4;
/// Counter fields of a PmuSample: five named events, the raw events and
/// cpu_ns.
constexpr int kPmuFields = 5 + kMaxRawEvents + 1;
/// Number of configured raw events (0 when unset/invalid); stable after
/// the first set_pmu_mode().
int pmu_num_raw_events();
/// Config code of raw event `i` (for labelling, e.g. "r11").
std::uint64_t pmu_raw_event_config(int i);

/// One cumulative per-thread reading (PmuCounts), the delta of two
/// readings on the same thread, or a sum of such deltas. Fixed-size —
/// reading never allocates. `hw` marks the cycle/instruction/cache/branch
/// fields valid (tier kHardware with an open group on this thread); cpu_ns
/// is valid at every enabled tier.
struct PmuSample {
  std::int64_t cycles = 0;
  std::int64_t instructions = 0;
  std::int64_t cache_refs = 0;
  std::int64_t cache_misses = 0;
  std::int64_t branch_misses = 0;
  std::int64_t raw[kMaxRawEvents] = {0, 0, 0, 0};
  std::int64_t cpu_ns = 0;
  bool hw = false;

  void accumulate(const PmuSample& other);
};
using PmuCounts = PmuSample;

/// end - begin, clamped at zero per field (counter wraps and multiplex
/// scaling can produce tiny negative deltas).
PmuSample pmu_delta(const PmuCounts& begin, const PmuCounts& end);

/// One perf_event_open group owned by a single thread. Constructed closed;
/// open() is idempotent per tier. Never throws — a thread whose open
/// fails (per-thread limits, races with sandboxing) degrades to CPU-time
/// reads on its own.
class PerfCounterGroup {
 public:
  PerfCounterGroup() = default;
  ~PerfCounterGroup();
  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  void open(PmuTier tier);
  void close();

  /// True when the hardware group is open on this thread.
  bool hw() const { return n_open_ > 0; }

  /// Snapshots the cumulative counters: one group read() plus one
  /// clock_gettime. No allocation, safe on any tier (fields it cannot
  /// measure stay zero).
  void read(PmuCounts& out) const;

 private:
  int fds_[5 + kMaxRawEvents] = {-1, -1, -1, -1, -1, -1, -1, -1, -1};
  int n_open_ = 0;  ///< open fds; fds_[0] is the group leader (cycles)
  /// Which PmuCounts field each open fd feeds (fds can be a subset when
  /// some events are unsupported): index into {cycles, instructions,
  /// cache_refs, cache_misses, branch_misses, raw[0..]}.
  int field_of_[5 + kMaxRawEvents] = {0};
};

/// The calling thread's counter group, opened lazily at the current tier
/// and re-opened when set_pmu_mode() bumps the generation. First call per
/// (thread, generation) performs the open syscalls; later calls are a
/// relaxed load and a compare.
PerfCounterGroup& thread_pmu();

/// Lock-free sum of samples. pmu_worker_acc() is the process-wide sum of
/// pooled-worker chunk samples (parts >= 1 only; see the attribution
/// rules above): the executor snapshots it around each step and charges
/// the difference to that step. Step rows (profile.h) keep one per view.
class PmuAccumulator {
 public:
  void add(const PmuSample& s);
  /// Cumulative totals since the last reset(); monotone, so two snapshots
  /// bracket a step. `out.hw` reports whether any hardware sample landed
  /// (cleared fields stay zero at lower tiers).
  void snapshot(PmuCounts& out) const;
  void reset();

 private:
  std::atomic<std::int64_t> sums_[kPmuFields] = {};
  std::atomic<bool> hw_{false};
};

PmuAccumulator& pmu_worker_acc();

}  // namespace t2c::obs
