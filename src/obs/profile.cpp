#include "obs/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/jsonlite.h"

namespace t2c::obs {

/// Per-name aggregate of executed steps: created by the name's first
/// instrumented record, never freed, written with relaxed atomics only.
/// Two views, each emptied only by its owner.
struct StepRow {
  /// Step count plus cost and PMU sums of one view.
  struct Sums {
    std::atomic<std::int64_t> steps{0};
    Counter flops, macs, bytes_read, bytes_written, pmu_steps;
    PmuAccumulator pmu;

    /// Adds one step; returns how many steps preceded it.
    std::int64_t add(const StepSample& s) {
      flops.add(s.cost.flops);
      macs.add(s.cost.macs);
      bytes_read.add(s.cost.bytes_read);
      bytes_written.add(s.cost.bytes_written);
      if (s.has_pmu) {
        pmu_steps.add(1);
        pmu.add(s.pmu);
      }
      return steps.fetch_add(1, std::memory_order_relaxed);
    }
    OpCost cost() const {
      return {flops.value(), macs.value(), bytes_read.value(),
              bytes_written.value()};
    }
    void reset() {
      steps.store(0, std::memory_order_relaxed);
      for (Counter* c : {&flops, &macs, &bytes_read, &bytes_written,
                         &pmu_steps}) {
        c->reset();
      }
      pmu.reset();
    }
  };

  // Metrics view, emptied by metrics().reset(): the deploy.op_ms.<name>
  // histogram (absent while empty) and, from steps recorded with profile
  // on too, this row's share of the profile.*.<kind> and pmu.* counters.
  Histogram op_ms{MetricsRegistry::latency_ms_buckets()};
  Sums met;
  // Profile view, emptied by profiler().clear().
  Sums prof;
  std::atomic<double> total_ms{0.0};
  std::atomic<const Name*> kernel{nullptr};
  /// The first kMaxSamples latencies; allocated by the first profile record.
  std::atomic<std::atomic<float>*> samples{nullptr};
};

namespace {

/// Interned names live in a deque, which never moves its elements, so a
/// Name's address is stable; the index holds views into them. Leaked:
/// rows must outlive static destruction.
struct NameTable {
  std::mutex mu;
  std::deque<Name> names;
  std::unordered_map<std::string_view, const Name*> index;
};

NameTable& name_table() {
  static NameTable* t = new NameTable();
  return *t;
}

/// Calls fn(name, row) for every row created so far (cold; under the
/// table lock, so fn must not intern).
template <typename Fn>
void for_each_row(Fn&& fn) {
  NameTable& t = name_table();
  const std::lock_guard<std::mutex> lock(t.mu);
  for (const Name& n : t.names) {
    if (StepRow* r = n.row.load(std::memory_order_acquire)) fn(n, *r);
  }
}

/// The object in `slot`, created on first use; a racing loser's copy is
/// dropped, so every thread sees the one published object.
template <typename T, typename Make>
T* get_or_publish(std::atomic<T*>& slot, Make&& make) {
  T* cur = slot.load(std::memory_order_acquire);
  if (cur != nullptr) return cur;
  auto fresh = make();
  if (slot.compare_exchange_strong(cur, fresh.get(),
                                   std::memory_order_acq_rel)) {
    return fresh.release();
  }
  return cur;
}

void trace_step(std::uint32_t tiers, const StepKey& key,
                const StepSample& s) {
  static const Name* const kIpc = intern("pmu.ipc");
  static const Name* const kMissRate = intern("pmu.cache_miss_rate");
  static const Name* const kLive = intern("deploy.arena.live_bytes");
  static const Name* const kSat = intern("deploy.sat.total");
  TraceRecorder& tr = tracer();
  const auto ratio = [&](const Name* name, std::int64_t num, std::int64_t den) {
    if (den > 0) {
      tr.counter(name, "pmu",
                 static_cast<double>(num) / static_cast<double>(den));
    }
  };
  if (s.has_pmu && s.pmu.hw) {
    // Per-step counter tracks: IPC and cache-miss rate over the run
    // timeline, next to the op spans they describe.
    ratio(kIpc, s.pmu.instructions, s.pmu.cycles);
    ratio(kMissRate, s.pmu.cache_misses, s.pmu.cache_refs);
  }
  TraceRecorder::Event e;
  e.key = key.name;
  e.cat = "deploy";
  e.ts_us = tr.us_at(s.t0_ns);
  e.dur_us = tr.us_at(s.t0_ns + std::llround(s.ms * 1e6)) - e.ts_us;
  e.tid = trace_tid();
  e.req = current_request();
  tr.record(std::move(e));
  // Arena occupancy after the step — the liveness plan's high-water
  // profile over the run — plus, when the saturation counters are live,
  // cumulative clipped values over time.
  tr.counter(kLive, "deploy", static_cast<double>(s.live_bytes));
  if (tiers & kTierMetrics) {
    tr.counter(kSat, "deploy",
               static_cast<double>(metrics().counter(kSat->str).value()));
  }
}

}  // namespace

const Name* intern(std::string_view s) {
  NameTable& t = name_table();
  const std::lock_guard<std::mutex> lock(t.mu);
  const auto it = t.index.find(s);
  if (it != t.index.end()) return it->second;
  Name& n = t.names.emplace_back();
  n.str = s;
  t.index.emplace(n.str, &n);
  return &n;
}

StepKey step_key(std::string_view name, std::string_view kernel) {
  StepKey k;
  k.name = intern(name);
  if (!kernel.empty()) k.kernel = intern(kernel);
  k.ring = flight_key(("deploy.step." + k.name->str).c_str());
  return k;
}

void StepSample::start(std::uint32_t tiers) {
  *this = StepSample{};
  // PMU bracket (DESIGN.md §3.9): this thread's counters plus the worker
  // accumulator before and after. The step's sample is the main-thread
  // delta (inline work and part 0 of every pooled region) plus whatever
  // the pool workers deposited meanwhile.
  has_pmu = (tiers & kTierProfile) && (tiers & kTierPmu);
  if (has_pmu) {
    pmu_worker_acc().snapshot(acc0_);
    thread_pmu().read(self0_);
  }
  t0_ns = mono_now_ns();
}

void StepSample::stop() {
  ms = static_cast<double>(mono_now_ns() - t0_ns) * 1e-6;
  if (has_pmu) {
    PmuCounts self1, acc1;
    thread_pmu().read(self1);
    pmu_worker_acc().snapshot(acc1);
    pmu = pmu_delta(self0_, self1);
    pmu.accumulate(pmu_delta(acc0_, acc1));
  }
}

void record_step(std::uint32_t tiers, const StepKey& key,
                 const StepSample& s) {
  // One fixed-size event into this thread's ring, keyed at compile time:
  // the telemetry hub and the flight recorder both read it.
  if (tiers & kRingTiers) flight_record(FlightKind::kStep, key.ring, s.ms);
  const bool prof = (tiers & kTierProfile) != 0;
  if (tiers & (kTierMetrics | kTierProfile)) {
    StepRow& row = *get_or_publish(key.name->row,
                                   [] { return std::make_unique<StepRow>(); });
    if (tiers & kTierMetrics) {
      row.op_ms.observe(s.ms);
      if (prof) row.met.add(s);
    }
    if (prof) {
      std::atomic<float>* res = get_or_publish(row.samples, [] {
        return std::make_unique<std::atomic<float>[]>(Profiler::kMaxSamples);
      });
      const auto n = static_cast<std::size_t>(row.prof.add(s));
      if (n < Profiler::kMaxSamples) {
        res[n].store(static_cast<float>(s.ms), std::memory_order_relaxed);
      }
      detail::atomic_add(row.total_ms, s.ms);
      // The kernel tag is the solver name chosen at compile time, so plan
      // dump, bench and profile all speak the registry's vocabulary.
      static const Name* const kFused = intern("fused");
      const Name* kernel = s.fused ? kFused : key.kernel;
      if (kernel != nullptr) {
        row.kernel.store(kernel, std::memory_order_relaxed);
      }
    }
  }
  if (tiers & kTierTrace) trace_step(tiers, key, s);
}

void add_step_metrics(MetricsSnapshot& snap) {
  for_each_row([&](const Name& n, const StepRow& r) {
    if (r.op_ms.count() == 0) return;
    snap.histograms.insert_or_assign("deploy.op_ms." + n.str,
                                     HistogramStats(r.op_ms));
    if (r.met.steps.load(std::memory_order_relaxed) > 0) {
      const std::string kind = n.str.substr(0, n.str.find(':'));
      const OpCost c = r.met.cost();
      snap.counters["profile.flops." + kind] += c.flops;
      snap.counters["profile.macs." + kind] += c.macs;
      snap.counters["profile.bytes." + kind] += c.bytes_read + c.bytes_written;
    }
    if (r.met.pmu_steps.value() > 0) {
      PmuSample p;
      r.met.pmu.snapshot(p);
      snap.counters["pmu.cpu_ns"] += p.cpu_ns;
      if (p.hw) {
        snap.counters["pmu.cycles"] += p.cycles;
        snap.counters["pmu.instructions"] += p.instructions;
        snap.counters["pmu.cache_refs"] += p.cache_refs;
        snap.counters["pmu.cache_misses"] += p.cache_misses;
        snap.counters["pmu.branch_misses"] += p.branch_misses;
      }
    }
  });
}

void clear_step_metrics() {
  for_each_row([](const Name&, StepRow& r) {
    r.op_ms.reset();
    r.met.reset();
  });
}

std::size_t Profiler::num_keys() const {
  std::size_t n = 0;
  for_each_row([&](const Name&, const StepRow& r) {
    n += r.prof.steps.load(std::memory_order_relaxed) > 0 ? 1 : 0;
  });
  return n;
}

void Profiler::clear() {
  for_each_row([](const Name&, StepRow& r) {
    r.prof.reset();
    r.total_ms.store(0.0, std::memory_order_relaxed);
    r.kernel.store(nullptr, std::memory_order_relaxed);
  });
}

namespace {

/// Linear-interpolated percentile over a sorted sample vector.
double pct(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

ProfileReport Profiler::report() const {
  ProfileReport r;
  for_each_row([&](const Name& name, const StepRow& a) {
    const std::int64_t calls = a.prof.steps.load(std::memory_order_relaxed);
    if (calls == 0) return;
    ProfileRow row;
    row.key = name.str;
    if (const Name* k = a.kernel.load(std::memory_order_relaxed)) {
      row.kernel = k->str;
    }
    row.calls = calls;
    row.total_ms = a.total_ms.load(std::memory_order_relaxed);
    row.mean_ms = row.total_ms / static_cast<double>(calls);
    std::vector<double> sorted(
        std::min(static_cast<std::size_t>(calls), kMaxSamples));
    const std::atomic<float>* res = a.samples.load(std::memory_order_acquire);
    for (std::size_t i = 0; res != nullptr && i < sorted.size(); ++i) {
      sorted[i] = res[i].load(std::memory_order_relaxed);
    }
    std::sort(sorted.begin(), sorted.end());
    row.p50_ms = pct(sorted, 0.50);
    row.p95_ms = pct(sorted, 0.95);
    row.p99_ms = pct(sorted, 0.99);
    row.cost = a.prof.cost();
    const std::int64_t bytes = row.cost.bytes_read + row.cost.bytes_written;
    if (bytes > 0) {
      row.intensity =
          static_cast<double>(row.cost.flops) / static_cast<double>(bytes);
    }
    if (row.total_ms > 0.0) {
      row.gflops = static_cast<double>(row.cost.flops) / (row.total_ms * 1e6);
      row.gbps = static_cast<double>(bytes) / (row.total_ms * 1e6);
    }
    row.pmu_steps = a.prof.pmu_steps.value();
    a.prof.pmu.snapshot(row.pmu);
    if (row.pmu_steps > 0) {
      const PmuSample& p = row.pmu;
      row.cpu_ms = static_cast<double>(p.cpu_ns) * 1e-6;
      r.has_cpu_pmu = r.has_cpu_pmu || p.cpu_ns > 0;
      if (p.hw) {
        r.has_hw_pmu = true;
        if (p.cycles > 0) {
          row.ipc = static_cast<double>(p.instructions) /
                    static_cast<double>(p.cycles);
        }
        if (p.cache_refs > 0) {
          row.miss_rate = static_cast<double>(p.cache_misses) /
                          static_cast<double>(p.cache_refs);
        }
        // 64B cache lines: the measured-traffic estimate the roofline
        // model is compared against.
        row.measured_bytes = static_cast<double>(p.cache_misses) * 64.0;
        if (bytes > 0) {
          row.measured_vs_modeled =
              row.measured_bytes / static_cast<double>(bytes);
        }
      }
      r.pmu_total.accumulate(p);
    }
    r.total_ms += row.total_ms;
    r.total_flops += row.cost.flops;
    r.total_macs += row.cost.macs;
    r.total_bytes += bytes;
    r.rows.push_back(std::move(row));
  });
  if (r.total_ms > 0.0) {
    for (ProfileRow& row : r.rows) {
      row.time_pct = 100.0 * row.total_ms / r.total_ms;
    }
  }
  std::sort(r.rows.begin(), r.rows.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.key < b.key;
            });
  r.pmu_tier = pmu_tier();
  return r;
}

std::string ProfileReport::table_text() const {
  std::ostringstream os;
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "per-op roofline profile: %.3f ms total, %.3f GFLOP "
                "(%.3f GMAC), %.3f GB moved\n",
                total_ms, static_cast<double>(total_flops) * 1e-9,
                static_cast<double>(total_macs) * 1e-9,
                static_cast<double>(total_bytes) * 1e-9);
  os << buf;
  if (pmu_tier != PmuTier::kDisabled) {
    std::snprintf(buf, sizeof(buf),
                  "pmu tier: %s, %.3f CPU ms measured\n",
                  pmu_tier_name(pmu_tier),
                  static_cast<double>(pmu_total.cpu_ns) * 1e-6);
    os << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  %-44s %-14s %7s %6s %9s %8s %8s %8s %9s %8s %6s %8s %7s",
                "op", "kernel", "calls", "time%", "total ms", "p50 ms",
                "p95 ms", "p99 ms", "MFLOP", "MB", "fl/B", "GFLOP/s", "GB/s");
  os << buf;
  // Measured columns ride along only at the tier that can fill them: IPC,
  // cache-miss rate, and measured/modeled bytes need the hardware group;
  // CPU ms needs only the per-thread clock.
  if (has_hw_pmu) {
    std::snprintf(buf, sizeof(buf), " %6s %6s %7s", "IPC", "miss%", "mea/mod");
    os << buf;
  }
  if (has_cpu_pmu) {
    std::snprintf(buf, sizeof(buf), " %8s", "cpu ms");
    os << buf;
  }
  os << '\n';
  for (const ProfileRow& r : rows) {
    const double mb = static_cast<double>(r.cost.bytes_read +
                                          r.cost.bytes_written) * 1e-6;
    std::snprintf(buf, sizeof(buf),
                  "  %-44s %-14s %7lld %6.1f %9.3f %8.3f %8.3f %8.3f %9.2f "
                  "%8.2f %6.2f %8.2f %7.2f",
                  r.key.c_str(), r.kernel.empty() ? "-" : r.kernel.c_str(),
                  static_cast<long long>(r.calls), r.time_pct, r.total_ms,
                  r.p50_ms, r.p95_ms, r.p99_ms,
                  static_cast<double>(r.cost.flops) * 1e-6, mb, r.intensity,
                  r.gflops, r.gbps);
    os << buf;
    if (has_hw_pmu) {
      if (r.pmu_steps > 0 && r.pmu.hw) {
        std::snprintf(buf, sizeof(buf), " %6.2f %6.2f %7.2f", r.ipc,
                      100.0 * r.miss_rate, r.measured_vs_modeled);
      } else {
        std::snprintf(buf, sizeof(buf), " %6s %6s %7s", "-", "-", "-");
      }
      os << buf;
    }
    if (has_cpu_pmu) {
      if (r.pmu_steps > 0) {
        std::snprintf(buf, sizeof(buf), " %8.3f", r.cpu_ms);
      } else {
        std::snprintf(buf, sizeof(buf), " %8s", "-");
      }
      os << buf;
    }
    os << '\n';
  }
  return os.str();
}

std::string ProfileReport::to_json() const {
  using jsonlite::json_escape;
  using jsonlite::json_num;
  std::ostringstream os;
  os << "{\"build_info\":" << build_info_json()
     << ",\"pmu_tier\":\"" << pmu_tier_name(pmu_tier) << '"'
     << ",\"total_ms\":" << json_num(total_ms)
     << ",\"total_flops\":" << total_flops << ",\"total_macs\":" << total_macs
     << ",\"total_bytes\":" << total_bytes << ",\"ops\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ProfileRow& r = rows[i];
    if (i) os << ',';
    os << "{\"op\":\"" << json_escape(r.key) << '"';
    if (!r.kernel.empty()) {
      os << ",\"kernel\":\"" << json_escape(r.kernel) << '"';
    }
    os << ",\"calls\":" << r.calls
       << ",\"total_ms\":" << json_num(r.total_ms)
       << ",\"mean_ms\":" << json_num(r.mean_ms)
       << ",\"p50_ms\":" << json_num(r.p50_ms)
       << ",\"p95_ms\":" << json_num(r.p95_ms)
       << ",\"p99_ms\":" << json_num(r.p99_ms)
       << ",\"time_pct\":" << json_num(r.time_pct)
       << ",\"flops\":" << r.cost.flops << ",\"macs\":" << r.cost.macs
       << ",\"bytes_read\":" << r.cost.bytes_read
       << ",\"bytes_written\":" << r.cost.bytes_written
       << ",\"intensity\":" << json_num(r.intensity)
       << ",\"gflops\":" << json_num(r.gflops)
       << ",\"gbps\":" << json_num(r.gbps);
    if (r.pmu_steps > 0) {
      os << ",\"pmu\":{\"steps\":" << r.pmu_steps
         << ",\"cpu_ms\":" << json_num(r.cpu_ms);
      if (r.pmu.hw) {
        os << ",\"cycles\":" << r.pmu.cycles
           << ",\"instructions\":" << r.pmu.instructions
           << ",\"cache_refs\":" << r.pmu.cache_refs
           << ",\"cache_misses\":" << r.pmu.cache_misses
           << ",\"branch_misses\":" << r.pmu.branch_misses
           << ",\"ipc\":" << json_num(r.ipc)
           << ",\"cache_miss_rate\":" << json_num(r.miss_rate)
           << ",\"measured_bytes\":" << json_num(r.measured_bytes)
           << ",\"measured_vs_modeled\":" << json_num(r.measured_vs_modeled);
        for (int k = 0; k < pmu_num_raw_events(); ++k) {
          char name[32];
          std::snprintf(name, sizeof(name), "r%llx",
                        static_cast<unsigned long long>(
                            pmu_raw_event_config(k)));
          os << ",\"" << name << "\":" << r.pmu.raw[k];
        }
      }
      os << '}';
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

Profiler& profiler() {
  static Profiler* p = new Profiler();
  return *p;
}

}  // namespace t2c::obs
