// Metrics registry — pillar 2 of the observability layer (obs/).
//
// Named counters, gauges, and fixed-bucket histograms behind one global
// registry with a deterministic snapshot()/to_json() API. Everything is
// gated on `metrics_enabled()` (default off): hot paths check the flag
// once per op/step and accumulate per-element statistics in locals, so a
// disabled build path pays one relaxed load and one predictable branch.
// The per-step series (`deploy.op_ms.*`, `profile.*.<kind>`, `pmu.*`) are
// not registry instruments: snapshot() reads them from the step rows
// (profile.h), which the executor writes without a lock or a name lookup.
//
// Naming convention (see README "Observability"): dot-separated
// `<stage>.<metric>[.<kind>][:<layer label>]`, e.g.
//   train.step_ms            deploy.op_ms.IntConv2d:stage1.b0.conv1
//   convert.weight_mse.head  deploy.sat.MulQuant:stage1.b0.conv1.mulquant
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tier.h"

namespace t2c::obs {

namespace detail {
/// fetch_add for atomic<double> without relying on C++20 FP atomics.
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Global switch for all metric collection (default: disabled).
inline bool metrics_enabled() { return tier_on(kTierMetrics); }
inline void set_metrics_enabled(bool on) { set_tier(kTierMetrics, on); }

/// Monotonic event count.
class Counter {
 public:
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-value-wins scalar (with a keep-the-max variant for drift peaks).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void set_max(double v);
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending bucket upper edges, with
/// an implicit +inf overflow bucket. Tracks count/sum/min/max and reports
/// interpolated percentiles — enough for mean/p50/p95 latency reporting
/// without storing samples.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  /// The sum of the bucket counts, so a count read alongside
  /// bucket_counts() never disagrees with them by an observe() in flight.
  std::int64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double min() const;
  double max() const;
  /// p in [0, 1]; linear interpolation inside the bucket holding the rank.
  double percentile(double p) const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, length bounds().size() + 1 (last = overflow).
  std::vector<std::int64_t> bucket_counts() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> counts_;
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Point-in-time copy of one histogram, pre-digested for reporting.
/// p99 rides along with p50/p95 because profiler tail latency needs more
/// than the median and one shoulder percentile.
struct HistogramStats {
  HistogramStats() = default;
  explicit HistogramStats(const Histogram& h);

  std::int64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<double> bounds;
  std::vector<std::int64_t> bucket_counts;

  /// Cumulative per-bucket counts with Prometheus `_bucket` semantics:
  /// entry i counts observations <= bounds[i]; the final entry (the
  /// implicit +Inf bucket) equals count. Derived from the exact
  /// bucket_counts, never reconstructed from quantiles.
  std::vector<std::int64_t> cumulative_counts() const;
};

/// Deterministic snapshot of the whole registry (names sorted).
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;

  /// Stable JSON: {"counters":{...},"gauges":{...},"histograms":{...}},
  /// every map emitted in sorted key order.
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  /// Get-or-create; the same name always returns the same instance. A hit
  /// takes the registry lock but never allocates.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` applies only on first creation of `name`.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& bounds = latency_ms_buckets());

  /// The registry's instruments plus the step rows' metrics view.
  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }
  void write_json(const std::string& path) const;

  /// Monotonic epoch, bumped by reset(). Hot paths that cache Counter* /
  /// Gauge* handles (deploy ops cache their saturation counters) tag the
  /// cache with this value and re-resolve when it changes — the only event
  /// that invalidates a handle is reset(), which bumps the generation
  /// before dropping the instruments.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Drops every registered metric, empties the step rows' metrics view
  /// and disables collection (the global enable flag is cleared first, so
  /// gated hot paths stop touching the registry). References obtained
  /// earlier dangle; intended for test isolation and between CLI runs only.
  void reset();

  /// Default buckets for millisecond latencies (sub-us .. multi-second).
  static const std::vector<double>& latency_ms_buckets();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::atomic<std::uint64_t> generation_{0};
};

/// The process-wide registry all instrumentation writes to.
MetricsRegistry& metrics();

}  // namespace t2c::obs
