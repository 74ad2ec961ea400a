// Step records and the execution profiler — per-op roofline accounting
// for the integer deploy path (DESIGN.md §3.8).
//
// Every executed plan step has one record path. ExecutionPlan::execute
// loads the tier word once per run; with a step tier on, each step makes
// one record_step() call keyed by the StepKey interned at plan compile.
// That call pushes the event-ring event, writes the step's per-name row
// (relaxed atomics: no lock, no string, no allocation once the row exists)
// and, with tracing on, one trace event carrying the interned name. The
// profiler report, the metrics snapshot (`deploy.op_ms.*`,
// `profile.{flops,macs,bytes}.<kind>`, `pmu.*`, hence /metrics) and the
// trace export read names from the rows at report time.
//
// Costs are OpCosts (FLOPs, MACs, bytes moved) derived purely from
// operand/output *shapes* via DeployOp::cost(), so profiles are
// thread-count-invariant: run the same model at --threads 1 and 16 and
// every count/FLOP/byte column diffs clean — only the timing columns move.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/pmu.h"

namespace t2c::obs {

inline bool profile_enabled() { return tier_on(kTierProfile); }
inline void set_profile_enabled(bool on) { set_tier(kTierProfile, on); }

/// Work and traffic of one op execution, derived from shapes only (never
/// from timings or the thread partition). Conventions in DESIGN.md §3.8:
/// a MAC counts once in `macs` and twice in `flops` (multiply + add);
/// bytes are int64 lanes (8 per element) including weight/LUT operands.
struct OpCost {
  std::int64_t flops = 0;
  std::int64_t macs = 0;
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
};

/// One aggregated table row of a ProfileReport.
struct ProfileRow {
  std::string key;  ///< `<kind>[:<label>]`, the deploy.op_ms key
  /// Kernel the executor selected for this op: the registry's solver name
  /// ("gemm_i8_fused", "attn_i16", ...), "gemm_i64(<fallback reason>)"
  /// when every narrow solver declined, or "fused" for a MulQuant folded
  /// into its producer's epilogue. Empty for single-implementation ops.
  /// The ISA rung the kernels ran at is the report's build_info.isa.
  std::string kernel;
  std::int64_t calls = 0;
  double total_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double time_pct = 0.0;  ///< share of the report's total_ms
  OpCost cost;            ///< summed over every call
  /// Roofline coordinates: arithmetic intensity (FLOPs per byte moved)
  /// and the effective throughputs at the measured wall time.
  double intensity = 0.0;
  double gflops = 0.0;  ///< cost.flops / total time, 1e9/s
  double gbps = 0.0;    ///< bytes moved / total time, 1e9/s
  /// Measured counters (obs/pmu, DESIGN.md §3.9). `pmu_steps` counts the
  /// calls that carried a sample; zero means the columns below are absent
  /// for this row. Unlike the modeled cost columns these are *measured*
  /// and vary run to run and with --threads.
  std::int64_t pmu_steps = 0;
  PmuSample pmu;               ///< summed deltas over sampled calls
  double ipc = 0.0;            ///< instructions / cycles (hardware tier)
  double miss_rate = 0.0;      ///< cache_misses / cache_references
  double cpu_ms = 0.0;         ///< summed thread CPU time (any tier)
  /// Measured traffic estimate (cache_misses x 64B lines) against the
  /// modeled bytes — the "does the kernel thrash?" column: ~1 means the
  /// roofline model holds, >> 1 means the op moves far more memory than
  /// its shapes require.
  double measured_bytes = 0.0;
  double measured_vs_modeled = 0.0;
};

/// Point-in-time digest of the profiler, sorted by total time descending
/// (ties broken by key so the rendering is deterministic).
struct ProfileReport {
  double total_ms = 0.0;
  std::int64_t total_flops = 0;
  std::int64_t total_macs = 0;
  std::int64_t total_bytes = 0;
  /// PMU rollup: the tier the report was taken at, whether any row has
  /// hardware counters / CPU-time samples, and the summed deltas.
  PmuTier pmu_tier = PmuTier::kDisabled;
  bool has_hw_pmu = false;
  bool has_cpu_pmu = false;
  PmuSample pmu_total;
  std::vector<ProfileRow> rows;

  /// Fixed-width per-op roofline table (the t2c_cli --profile output).
  std::string table_text() const;
  /// Deterministic JSON for --profile-json; timings are included but the
  /// count/FLOP/byte fields are the ones guaranteed stable across runs.
  std::string to_json() const;
};

// ---- step records ----

struct MetricsSnapshot;
struct StepRow;

/// A name interned at full length: never truncated, never merged, never
/// freed, so its address is the id rows, kernel tags and trace events
/// carry. A step name's row is created by its first instrumented record.
struct Name {
  std::string str;
  mutable std::atomic<StepRow*> row{nullptr};
};
/// Interns `s` (cold: takes a lock; call at plan compile or once per
/// site). The same string always returns the same Name.
const Name* intern(std::string_view s);

/// One plan step's identity, interned at plan compile.
struct StepKey {
  const Name* name = nullptr;    ///< `<kind>[:<label>]`: the row's name
  const Name* kernel = nullptr;  ///< compile-time kernel tag; null = none
  std::uint32_t ring = 0;        ///< flight_key("deploy.step.<name>")
};
/// `name` is `<kind>[:<label>]`; `kernel` is DeployOp::kernel().
StepKey step_key(std::string_view name, std::string_view kernel = {});

/// What one executed step reports.
struct StepSample {
  std::int64_t t0_ns = 0;  ///< start, mono_now_ns()
  double ms = 0.0;         ///< wall time
  OpCost cost;             ///< modeled work (profile tier)
  bool has_pmu = false;    ///< `pmu` holds the step's counter deltas
  PmuSample pmu;
  /// The step's work ran in its producer's epilogue: kernel tag "fused".
  bool fused = false;
  std::int64_t live_bytes = 0;  ///< arena occupancy after the step

  /// Resets the sample and opens the clock bracket, plus the PMU bracket
  /// (DESIGN.md §3.9) when both the profile and PMU tiers are on.
  void start(std::uint32_t tiers);
  /// Closes the brackets into t0_ns, ms and pmu.
  void stop();

 private:
  PmuCounts self0_, acc0_;
};

/// The one record call per executed step, under the caller's tier word:
/// the ring event (flight, telemetry), the row's metrics view (metrics),
/// its profile view (profile; cost and PMU sums, the capped sample
/// reservoir, the kernel tag) and the trace span and counters (trace).
void record_step(std::uint32_t tiers, const StepKey& key,
                 const StepSample& s);

/// Adds the rows' metrics view to a snapshot (MetricsRegistry::snapshot).
void add_step_metrics(MetricsSnapshot& snap);
/// Empties the rows' metrics view (MetricsRegistry::reset).
void clear_step_metrics();

/// The profile view of the step rows: every row recorded with profile on
/// since the last clear(), one ProfileRow per name. Repeated executions of
/// a name (multiple batches, repeated layers sharing a label) accumulate;
/// the sample reservoir keeps the first kMaxSamples latencies of a row
/// (the cap affects tail percentiles of very long runs only, never the
/// call/FLOP/byte totals); the last non-empty kernel tag wins.
class Profiler {
 public:
  ProfileReport report() const;

  std::size_t num_keys() const;

  /// Empties the profile view (test isolation and between CLI phases).
  void clear();

  static constexpr std::size_t kMaxSamples = 8192;
};

/// The process-wide profiler view.
Profiler& profiler();

}  // namespace t2c::obs
