#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/profile.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/jsonlite.h"

namespace t2c::obs {

void Gauge::set_max(double v) {
  double cur = v_.load(std::memory_order_relaxed);
  while (v > cur &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  check(!bounds_.empty(), "Histogram: need at least one bucket bound");
  check(std::is_sorted(bounds_.begin(), bounds_.end()),
        "Histogram: bounds must be ascending");
  counts_ = std::make_unique<std::atomic<std::int64_t>[]>(bounds_.size() + 1);
  reset();
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::int64_t Histogram::count() const {
  std::int64_t n = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    n += counts_[i].load(std::memory_order_relaxed);
  }
  return n;
}

double Histogram::mean() const {
  const std::int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::min() const {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::percentile(double p) const {
  check(p >= 0.0 && p <= 1.0, "Histogram::percentile: p must be in [0, 1]");
  const std::int64_t n = count();
  if (n == 0) return 0.0;
  const double target = p * static_cast<double>(n);
  const double lo_edge = min();
  const double hi_edge = max();
  double cum = 0.0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const auto c = static_cast<double>(
        counts_[i].load(std::memory_order_relaxed));
    if (c <= 0.0) continue;
    if (cum + c >= target) {
      // Interpolate inside bucket i, clamped to the observed range.
      double lo = i == 0 ? lo_edge : std::max(lo_edge, bounds_[i - 1]);
      double hi = i == bounds_.size() ? hi_edge
                                      : std::min(hi_edge, bounds_[i]);
      if (hi < lo) hi = lo;
      const double frac = std::min(1.0, std::max(0.0, (target - cum) / c));
      return lo + (hi - lo) * frac;
    }
    cum += c;
  }
  return hi_edge;
}

std::vector<std::int64_t> Histogram::bucket_counts() const {
  std::vector<std::int64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

namespace {

using jsonlite::json_escape;
using jsonlite::json_num;

}  // namespace

HistogramStats::HistogramStats(const Histogram& h)
    : sum(h.sum()),
      mean(h.mean()),
      min(h.min()),
      max(h.max()),
      p50(h.percentile(0.50)),
      p95(h.percentile(0.95)),
      p99(h.percentile(0.99)),
      bounds(h.bounds()),
      bucket_counts(h.bucket_counts()) {
  // Counted from this one bucket copy, so the exposition's +Inf bucket
  // equals _count even while observe() runs on other threads.
  for (const std::int64_t c : bucket_counts) count += c;
}

std::vector<std::int64_t> HistogramStats::cumulative_counts() const {
  std::vector<std::int64_t> cum(bucket_counts.size(), 0);
  std::int64_t running = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    running += bucket_counts[i];
    cum[i] = running;
  }
  return cum;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"build_info\":" << build_info_json() << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":" << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":" << json_num(v);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << json_num(h.sum) << ",\"mean\":" << json_num(h.mean)
       << ",\"min\":" << json_num(h.min) << ",\"max\":" << json_num(h.max)
       << ",\"p50\":" << json_num(h.p50) << ",\"p95\":" << json_num(h.p95)
       << ",\"p99\":" << json_num(h.p99) << ",\"buckets\":[";
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i) os << ',';
      os << "{\"le\":";
      if (i < h.bounds.size()) {
        os << json_num(h.bounds[i]);
      } else {
        os << "\"inf\"";
      }
      os << ",\"count\":" << h.bucket_counts[i] << '}';
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

namespace {

/// Get-or-create under the registry lock: a hit is one heterogeneous
/// lookup, and only a miss builds the key string.
template <typename T, typename... Args>
T& get_or_create(std::map<std::string, std::unique_ptr<T>, std::less<>>& m,
                 std::string_view name, Args&&... args) {
  auto it = m.find(name);
  if (it == m.end()) {
    it = m.emplace(std::string(name),
                   std::make_unique<T>(std::forward<Args>(args)...))
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return get_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return get_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  return get_or_create(histograms_, name, bounds);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
    for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
    for (const auto& [name, h] : histograms_) {
      snap.histograms.emplace(name, HistogramStats(*h));
    }
  }
  add_step_metrics(snap);
  return snap;
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream os(path);
  check(os.good(), "metrics: cannot open for writing: " + path);
  os << to_json() << '\n';
}

void MetricsRegistry::reset() {
  // Dropping the instruments also turns collection off: any Counter/Gauge/
  // Histogram reference obtained before this call now dangles, and the
  // disabled flag keeps gated hot paths from re-registering half a run's
  // worth of metrics against a cleared registry.
  set_metrics_enabled(false);
  clear_step_metrics();
  const std::lock_guard<std::mutex> lock(mu_);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

const std::vector<double>& MetricsRegistry::latency_ms_buckets() {
  static const std::vector<double> kBuckets = {
      0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
      5.0,   10.0,  50.0, 100., 500., 1000.0, 5000.0};
  return kBuckets;
}

MetricsRegistry& metrics() {
  static MetricsRegistry* reg = new MetricsRegistry();
  return *reg;
}

}  // namespace t2c::obs
