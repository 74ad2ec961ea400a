// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every bench runs standalone (no arguments) and prints the rows of the
// corresponding paper table/figure plus our measured values. Set
// T2C_SCALE=full for larger datasets / longer training (default: quick,
// sized for a single CPU core — see DESIGN.md §4).
// Set T2C_BENCH_JSON=/path/to/file.json to additionally dump the
// hand-timed sections as machine-readable rows (name, reps, min/mean/
// p50/p95/stddev milliseconds, pool size) plus the build_info provenance
// block, for CI trend tracking and the t2c_perf_diff regression gate.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/registry.h"
#include "core/t2c.h"
#include "models/models.h"
#include "obs/pmu.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/jsonlite.h"
#include "util/stopwatch.h"

namespace t2c::bench {

/// 1 = quick (default), 2 = full (T2C_SCALE=full).
inline int scale_factor() {
  const char* env = std::getenv("T2C_SCALE");
  return (env != nullptr && std::strcmp(env, "full") == 0) ? 2 : 1;
}

/// The reduced "ImageNet-1K" stand-in used by Tables 1 and 3 (DESIGN.md §4).
inline DatasetSpec imagenet_bench_spec() {
  DatasetSpec s = imagenet_sim();
  const int f = scale_factor();
  s.classes = 20;
  s.train_size = 600 * f;
  s.test_size = 200 * f;
  // Difficulty tuned so fp32 lands around 90%: quantization / sparsity
  // deltas stay visible instead of saturating at 100%.
  s.noise = 1.0F;
  s.class_sep = 0.55F;
  return s;
}

/// The "CIFAR-10" stand-in used by Table 2 and the figure benches.
inline DatasetSpec cifar_bench_spec() {
  DatasetSpec s = cifar10_sim();
  const int f = scale_factor();
  s.train_size = 400 * f;
  s.test_size = 300;
  s.noise = 1.2F;
  s.class_sep = 0.45F;
  return s;
}

/// fp32 training of a quantized model (quantizers bypassed). Returns the
/// fp32 test accuracy — the reference for every accuracy-delta column.
inline double pretrain_fp32(Sequential& model, const SyntheticImageDataset& d,
                            int epochs, float lr = 0.1F) {
  set_quantizer_bypass(model, true);
  TrainerOptions o;
  o.train.epochs = epochs;
  o.train.lr = lr;
  auto tr = make_trainer("supervised", model, d, o);
  tr->fit();
  const double acc = tr->evaluate();
  set_quantizer_bypass(model, false);
  return acc;
}

/// Converts (channel-wise fusion by default) and returns integer-only
/// deploy accuracy on the test split.
inline double deploy_accuracy(Sequential& model, const SyntheticImageDataset& d,
                              ConvertConfig cfg = {}) {
  if (cfg.input_shape.empty()) {
    cfg.input_shape = {d.spec().channels, d.spec().height, d.spec().width};
  }
  freeze_quantizers(model);
  T2CConverter conv(cfg);
  DeployModel dm = conv.convert(model);
  return dm.evaluate(d.test_images(), d.test_labels());
}

/// Simple fixed-width row printer for paper-style tables.
class Table {
 public:
  explicit Table(std::vector<int> widths) : widths_(std::move(widths)) {}

  void row(const std::vector<std::string>& cells) const {
    std::string line = "|";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const int w = i < widths_.size() ? widths_[i] : 12;
      char buf[160];
      std::snprintf(buf, sizeof(buf), " %-*s |", w, cells[i].c_str());
      line += buf;
    }
    std::puts(line.c_str());
  }

  void rule() const {
    std::string line = "+";
    for (int w : widths_) line += std::string(static_cast<std::size_t>(w) + 2, '-') + "+";
    std::puts(line.c_str());
  }

 private:
  std::vector<int> widths_;
};

inline std::string fmt(double v, int prec = 2) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt_delta(double v, double ref, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f (%+.*f)", prec, v, prec, v - ref);
  return buf;
}

// ---- machine-readable timing (T2C_BENCH_JSON) ----

/// One timed section, digested for trend tracking. `min_ms` is the
/// regression-gate statistic (least-noise estimate of the true cost);
/// `stddev_ms` feeds the comparator's noise window.
struct BenchStat {
  std::string name;
  int reps = 0;
  double min_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double stddev_ms = 0.0;
  /// Pool size (par::max_threads()) while the row was timed.
  int threads = 0;
  /// Mean per-rep IPC and its coefficient of variation; 0 unless
  /// T2C_BENCH_PMU is set and the hardware counter tier is available.
  /// ipc_cv feeds the t2c_perf_diff noise window (an unstable IPC means
  /// the machine, not the code, moved).
  double ipc = 0.0;
  double ipc_cv = 0.0;
  /// Which code path produced the timing — a solver-registry name such
  /// as "gemm_i8_fused", or a raw loop such as "gemm_i64_tiled"; empty =
  /// untagged. The ISA rung is the document's build_info.isa.
  /// t2c_perf_diff treats a row whose kernel changed as a new
  /// measurement, not a regression of the old one.
  std::string kernel;
};

/// Runs `fn` `reps` times and reports min/mean/p50/p95/stddev wall ms.
/// With T2C_BENCH_PMU set, each rep is additionally bracketed with the
/// thread's hardware counter group (obs/pmu) for the IPC columns.
template <typename Fn>
BenchStat time_reps(const std::string& name, Fn&& fn, int reps = 20) {
  check(reps > 0, "time_reps: reps must be positive");
  static const bool want_pmu = std::getenv("T2C_BENCH_PMU") != nullptr;
  if (want_pmu) {
    static const bool init = [] {
      obs::set_pmu_mode(obs::PmuMode::kAuto);
      return true;
    }();
    (void)init;
  }
  const bool hw = want_pmu && obs::pmu_tier() == obs::PmuTier::kHardware;
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  std::vector<double> ipcs;
  for (int i = 0; i < reps; ++i) {
    obs::PmuCounts c0;
    if (hw) obs::thread_pmu().read(c0);
    Stopwatch sw;
    fn();
    ms.push_back(sw.millis());
    if (hw) {
      obs::PmuCounts c1;
      obs::thread_pmu().read(c1);
      const obs::PmuSample d = obs::pmu_delta(c0, c1);
      if (d.hw && d.cycles > 0) {
        ipcs.push_back(static_cast<double>(d.instructions) /
                       static_cast<double>(d.cycles));
      }
    }
  }
  std::sort(ms.begin(), ms.end());
  BenchStat s;
  s.name = name;
  s.reps = reps;
  s.threads = par::max_threads();
  s.min_ms = ms.front();
  for (double v : ms) s.mean_ms += v;
  s.mean_ms /= static_cast<double>(reps);
  double var = 0.0;
  for (double v : ms) var += (v - s.mean_ms) * (v - s.mean_ms);
  s.stddev_ms = reps > 1
                    ? std::sqrt(var / static_cast<double>(reps - 1))
                    : 0.0;
  const auto at = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(ms.size() - 1));
    return ms[idx];
  };
  s.p50_ms = at(0.5);
  s.p95_ms = at(0.95);
  if (!ipcs.empty()) {
    for (double v : ipcs) s.ipc += v;
    s.ipc /= static_cast<double>(ipcs.size());
    if (ipcs.size() > 1 && s.ipc > 0.0) {
      double ivar = 0.0;
      for (double v : ipcs) ivar += (v - s.ipc) * (v - s.ipc);
      s.ipc_cv = std::sqrt(ivar / static_cast<double>(ipcs.size() - 1)) /
                 s.ipc;
    }
  }
  return s;
}

/// time_reps with the row tagged by the code path that produced it.
template <typename Fn>
BenchStat time_reps_kernel(const std::string& name, const std::string& kernel,
                           Fn&& fn, int reps = 20) {
  BenchStat s = time_reps(name, std::forward<Fn>(fn), reps);
  s.kernel = kernel;
  return s;
}

/// Path from the T2C_BENCH_JSON env var, or nullptr when JSON output is off.
inline const char* bench_json_path() { return std::getenv("T2C_BENCH_JSON"); }

/// Writes `{"build_info":{...},"rows":[{"name":...,"reps":N,"min_ms":...,
/// "mean_ms":...,"p50_ms":...,"p95_ms":...,"stddev_ms":...,
/// "threads":N}]}` to T2C_BENCH_JSON. No-op (returns false) when the env
/// var is unset. t2c_perf_diff also reads the legacy bare-array form, so
/// committed baselines survive schema upgrades.
inline bool write_bench_json(const std::vector<BenchStat>& stats) {
  const char* path = bench_json_path();
  if (path == nullptr) return false;
  FILE* f = std::fopen(path, "w");
  check(f != nullptr, std::string("cannot open for writing: ") + path);
  std::fprintf(f, "{\"build_info\":%s,\n \"rows\":[",
               build_info_json().c_str());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const BenchStat& s = stats[i];
    std::fprintf(f,
                 "%s\n  {\"name\":\"%s\",\"reps\":%d,\"min_ms\":%.6f,"
                 "\"mean_ms\":%.6f,\"p50_ms\":%.6f,\"p95_ms\":%.6f,"
                 "\"stddev_ms\":%.6f,\"threads\":%d",
                 i == 0 ? "" : ",", jsonlite::json_escape(s.name).c_str(),
                 s.reps, s.min_ms, s.mean_ms, s.p50_ms, s.p95_ms,
                 s.stddev_ms, s.threads);
    if (s.ipc > 0.0) {
      std::fprintf(f, ",\"ipc\":%.4f,\"ipc_cv\":%.4f", s.ipc, s.ipc_cv);
    }
    if (!s.kernel.empty()) {
      std::fprintf(f, ",\"kernel\":\"%s\"",
                   jsonlite::json_escape(s.kernel).c_str());
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::printf("bench json: %s (%zu rows)\n", path, stats.size());
  return true;
}

}  // namespace t2c::bench
