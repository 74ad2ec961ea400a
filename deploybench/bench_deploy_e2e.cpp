// Deploy-path benchmark: the deploy half of the Torch2Chip flow, end to end
// and layer by layer, on one zoo model per workload.
//
//   bench_deploy_e2e --workload NAME --seed N [--seconds S] [--trace 0|1]
//                    [--reps R] [--work-dir DIR]
//
// Set-up builds the model (fixed weight seed, so every --seed yields the
// same graph), PTQ-calibrates it on seeded synthetic data, quantizes the
// seeded request batches, and computes reference outputs with an
// opt-level-0 conversion at 1 thread — the int64 path, which shares no
// solver or fusion code with opt 2. Every output the bench sees afterwards
// is compared with those references bit for bit.
//
// --trace 0 measures the end-to-end metrics: convert + export, load +
// first inference, and S seconds of closed-loop run_int serving from one
// client, with the reps of the first two spread between serve slices.
// --trace 1 repeats set-up and measures the per-layer metrics
// instead, only by timing calls into each module's public functions plus
// the profiler's per-op rows. README.md lists the workloads and metrics.
//
// Output: one line per metric, then a line stamping build_info, seed and
// pool size, then — last — one JSON object {correct, attempted, failed,
// metrics}. Exit code 1 when any output mismatched or any call threw
// (after printing everything), 2 on bad arguments or a set-up error.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "data/loader.h"
#include "deploy/exec_plan.h"
#include "deploy/int_ops.h"
#include "deploy/passes.h"
#include "deploy/vit_ops.h"
#include "fusion/converter.h"
#include "models/models.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "quant/ptq.h"
#include "sparse/nm_pruner.h"
#include "tensor/int8_gemm.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/jsonlite.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "xport/checkpoint.h"
#include "xport/verilog.h"

namespace {

using namespace t2c;
namespace fs = std::filesystem;

constexpr std::uint64_t kWeightSeed = 3;
constexpr int kCalibBatches = 4;
constexpr int kCalibBatchSize = 32;
constexpr int kRequestBatches = 16;
constexpr int kOrderLength = 256;  ///< seeded request order, cycled
constexpr int kSetupReps = 5;
constexpr int kHexWordBits = 8;
constexpr double kMiB = 1024.0 * 1024.0;

struct Workload {
  const char* name;
  std::unique_ptr<Sequential> (*make)(const ModelConfig&);
  float width_mult;
  std::int64_t batch;
  bool sparse24;      ///< NMPruner(2,4) masks applied before calibration
  bool serve_loaded;  ///< serve load_checkpoint's model, not convert's
};

// Why each workload exists is recorded in README.md: together they put
// the weight on executor overhead (vit), memory-bound sweeps (mobilenet),
// packed GEMMs on sparse weights (resnet50) and the checkpoint reader
// (resnet20). All serve on a 1-thread pool: with 2 threads the p5 latency
// of resnet50 moved by 65% between identical runs on a shared VM, as the
// second vCPU's speed came and went. The traced run sweeps the pool size.
constexpr Workload kWorkloads[] = {
    {"vit_b1", make_vit, 1.0F, 1, false, false},
    {"mobilenet_b8", make_mobilenet_v1, 0.5F, 8, false, false},
    {"resnet50_sparse24_b8", make_resnet50, 0.25F, 8, true, false},
    {"resnet20_ckpt_b1", make_resnet20, 0.5F, 1, false, true},
};

/// Op kinds reported by the traced run; kinds a model lacks read 0.
constexpr const char* kOpKinds[] = {
    "IntConv2d",    "IntLinear",    "MulQuant",         "IntAdd",
    "IntAttention", "IntLayerNorm", "LutSoftmax",       "LutGelu",
    "IntMaxPool2d", "IntGlobalAvgPool", "IntMeanPoolTokens", "Tokenize"};

bool gemm_kind(const std::string& kind) {
  return kind == "IntConv2d" || kind == "IntLinear" || kind == "IntAttention";
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int reps = 9;
  std::string work_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    check(i + 1 < argc, "missing value after " + flag);
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
      check(a.workload != nullptr, "unknown workload: " + v);
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      check(v == "0" || v == "1", "--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--reps") {
      a.reps = std::stoi(v);
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      throw Error("unknown flag: " + flag);
    }
  }
  check(a.workload != nullptr,
        "--workload is required: vit_b1, mobilenet_b8, "
        "resnet50_sparse24_b8 or resnet20_ckpt_b1");
  check(a.seconds > 0.0 && a.reps >= 1,
        "--seconds and --reps must be positive");
  return a;
}

/// Scratch directory for checkpoints and hex images, removed on exit.
class WorkDir {
 public:
  explicit WorkDir(const std::string& parent)
      : path_(fs::path(parent) /
              ("bench_deploy_e2e." + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Moves the calling thread to the next allowed CPU on each step() and
/// restores its affinity on destruction. On a shared VM one vCPU can run
/// slower than the others for seconds at a time; rotating the measuring
/// thread over all of them keeps one slow vCPU from biasing a whole run.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Attempted and failed operations: requests, pipeline calls, checks.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v) {
  check(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  check(!v.empty(), "quantile of no samples");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Timings are summarized by low quantiles: on a shared virtual machine a
// vCPU can run at about half speed for seconds at a time while a
// neighbour is busy, which moves medians by tens of percent between
// identical runs. The 5th percentile of many requests, and the best of
// reps spread over the run, follow the code instead.
double p5(const std::vector<double>& v) { return quantile(v, 0.05); }
double best(const std::vector<double>& v) { return quantile(v, 0.0); }

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

bool same(const ITensor& a, const ITensor& b) {
  return a.shape() == b.shape() && a.vec() == b.vec();
}

std::int64_t dir_bytes(const fs::path& dir) {
  std::int64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += static_cast<std::int64_t>(e.file_size());
  }
  return bytes;
}

/// Times one call into a public API. A call that throws is reported and
/// returns false; its elapsed time still counts as a sample.
template <typename Fn>
bool timed(std::vector<double>& samples_ms, Fn&& fn) {
  bool ok = true;
  Stopwatch sw;
  try {
    fn();
  } catch (const std::exception& e) {
    ok = false;
    std::fprintf(stderr, "bench_deploy_e2e: %s\n", e.what());
  }
  samples_ms.push_back(sw.millis());
  return ok;
}

DeployModel convert_at(Sequential& model, const Shape& input_shape,
                       int opt_level) {
  ConvertConfig cfg;
  cfg.input_shape = input_shape;
  cfg.opt_level = opt_level;
  return T2CConverter(cfg).convert(model);
}

struct Setup {
  std::unique_ptr<Sequential> model;  ///< calibrated, quantizers frozen
  Shape input_shape;
  std::vector<ITensor> requests;  ///< quantized request batches
  std::vector<ITensor> refs;      ///< opt-0 int64 outputs at 1 thread
  std::vector<int> order;         ///< request batch per request, cycled
};

Setup run_setup(const Workload& w, std::uint64_t seed) {
  Setup s;
  ModelConfig mc;
  mc.width_mult = w.width_mult;
  mc.seed = kWeightSeed;
  s.model = w.make(mc);
  if (w.sparse24) NMPruner(2, 4).apply(prunable_layers(*s.model), 0.5);

  DatasetSpec spec = cifar10_sim();
  spec.seed = seed;
  spec.train_size = kCalibBatches * kCalibBatchSize;
  spec.test_size = static_cast<int>(kRequestBatches * w.batch);
  const SyntheticImageDataset data(spec);
  DataLoader loader(data.train_images(), data.train_labels(), kCalibBatchSize,
                    /*shuffle=*/true, seed);
  calibrate(*s.model, loader, kCalibBatches);
  s.input_shape = {spec.channels, spec.height, spec.width};

  const DeployModel ref = convert_at(*s.model, s.input_shape, 0);
  for (std::int64_t b = 0; b < kRequestBatches; ++b) {
    Tensor x({w.batch, spec.channels, spec.height, spec.width});
    const float* images = data.test_images().data() + b * x.numel();
    std::copy(images, images + x.numel(), x.data());
    s.requests.push_back(ref.quantize_input(x));
    s.refs.push_back(ref.run_int(s.requests.back()));
  }
  Rng rng(seed);
  s.order.resize(kOrderLength);
  for (int& b : s.order) b = rng.randint(0, kRequestBatches - 1);
  return s;
}

/// run_int that reports a throw and returns an empty tensor, which then
/// fails the comparison with the reference.
ITensor run_checked(const DeployModel& dm, const ITensor& input) {
  try {
    return dm.run_int(input);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_deploy_e2e: run_int: %s\n", e.what());
    return {};
  }
}

/// One checked pass over every request batch, so plan compile, weight
/// packing, arena growth and pool start-up land before a timed window.
void warm(const DeployModel& dm, const Setup& s, Tally& t) {
  for (std::size_t b = 0; b < s.requests.size(); ++b) {
    t.record(same(run_checked(dm, s.requests[b]), s.refs[b]));
  }
}

/// Closed loop with one client: the next run_int is issued when the
/// previous one returns. Returns per-request wall ms; every output is
/// checked against the reference for its batch.
std::vector<double> serve(const DeployModel& dm, const Setup& s,
                          double seconds, Tally& t) {
  std::vector<double> ms;
  const std::int64_t end_ns =
      mono_now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; ms.empty() || mono_now_ns() < end_ns; ++i) {
    const auto b = static_cast<std::size_t>(s.order[i % s.order.size()]);
    Stopwatch sw;
    const ITensor out = run_checked(dm, s.requests[b]);
    ms.push_back(sw.millis());
    t.record(same(out, s.refs[b]));
  }
  return ms;
}

// ---- end-to-end metrics (--trace 0) ----

void measure_end_to_end(const Args& a, const fs::path& work,
                        std::vector<Metric>& out, Tally& t) {
  const Workload& w = *a.workload;
  std::vector<double> setup_s, export_ms, cold_ms, lat;
  const auto setup_rep = [&] {
    Stopwatch sw;
    Setup s = run_setup(w, a.seed);
    setup_s.push_back(sw.seconds());
    return s;
  };
  const Setup s = setup_rep();

  // convert (opt 2) -> checkpoint -> hex images + testbench, into a fresh
  // directory each rep. The first rep's model is the one served.
  const fs::path dir = work / "export";
  const std::string ckpt = (dir / "model.t2c").string();
  DeployModel converted;
  const auto export_rep = [&] {
    fs::remove_all(dir);
    fs::create_directories(dir);
    DeployModel dm;
    t.record(timed(export_ms, [&] {
      dm = convert_at(*s.model, s.input_shape, 2);
      save_checkpoint(dm, ckpt);
      (void)emit_verilog_testbench(dm, (dir / "hex").string(), kHexWordBits);
    }));
    if (converted.num_ops() == 0) converted = std::move(dm);
  };
  export_rep();
  const std::int64_t artifact_bytes = dir_bytes(dir);

  // load_checkpoint -> first run_int: lazy plan compile, weight packing and
  // arena growth. Every loaded model must match the converted one.
  const ITensor converted_out = run_checked(converted, s.requests[0]);
  t.record(same(converted_out, s.refs[0]));
  DeployModel loaded;
  const auto cold_rep = [&] {
    DeployModel dm;
    ITensor first;
    const bool ok = timed(cold_ms, [&] {
      dm = load_checkpoint(ckpt);
      first = dm.run_int(s.requests[0]);
    });
    t.record(ok && same(first, converted_out));
    if (loaded.num_ops() == 0) loaded = std::move(dm);
  };
  cold_rep();

  // Serving in --reps slices; the other reps run between slices, each
  // round on the next CPU, so slow spells of the host hit single reps
  // rather than all of them.
  const DeployModel& served = w.serve_loaded ? loaded : converted;
  warm(served, s, t);
  const int setup_every = std::max(1, a.reps / (kSetupReps - 1));
  CpuRotation rotation;
  for (int r = 1;; ++r) {
    rotation.step();
    append(lat, serve(served, s, a.seconds / a.reps, t));
    if (r == a.reps) break;
    if (r % setup_every == 0 &&
        setup_s.size() < static_cast<std::size_t>(kSetupReps)) {
      (void)setup_rep();
    }
    export_rep();
    cold_rep();
  }
  const std::int64_t mem =
      served.memory_stats().peak_bytes + served.plan().packed_bytes();

  // The median set-up of several, so a later change that moves work into
  // set-up shows.
  out.push_back({"setup_s", median(setup_s), "s"});
  out.push_back({"convert_export_ms", best(export_ms), "ms"});
  out.push_back({"cold_start_ms", best(cold_ms), "ms"});
  out.push_back({"latency_p5_ms", p5(lat), "ms"});
  out.push_back({"deploy_mem_mib", static_cast<double>(mem) / kMiB, "MiB"});
  out.push_back(
      {"artifact_mib", static_cast<double>(artifact_bytes) / kMiB, "MiB"});
}

// ---- per-layer metrics (--trace 1) ----

/// Best-of-N int8 packed GEMM on a cache-resident 64x256x256 problem at 1
/// thread: the compute roof for the GEMM kinds' pct_peak.
double host_peak_gops() {
  constexpr std::int64_t m = 64, k = 256, n = 256;
  Rng rng(1);
  std::vector<std::int64_t> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = rng.randint(-127, 127);
  for (auto& v : b) v = rng.randint(-127, 127);
  const auto pb = i8::pack_b(b.data(), k, n, /*trans_b=*/false);
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 50; ++i) {
    Stopwatch sw;
    i8::gemm_b_packed(a.data(), *pb, c.data(), m, i8::Epilogue{},
                      /*threaded=*/false);
    best = std::min(best, sw.seconds());
  }
  return 2.0 * static_cast<double>(m * n * k) / best / 1e9;
}

/// Best-of-N copy of a 128 MiB buffer (read + write bytes counted): the
/// memory roof for the other kinds' pct_peak.
double host_stream_gbps() {
  constexpr std::size_t bytes = std::size_t{128} << 20;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  double best = std::numeric_limits<double>::infinity();
  volatile char sink = 0;
  for (int i = 0; i < 3; ++i) {
    Stopwatch sw;
    std::memcpy(dst.data(), src.data(), bytes);
    best = std::min(best, sw.seconds());
    sink = static_cast<char>(sink + dst[static_cast<std::size_t>(i) * 4096]);
  }
  return 2.0 * static_cast<double>(bytes) / best / 1e9;
}

struct ObsTier {
  const char* metric;
  void (*set)(bool on);
};

// Each tier is turned on through its public switch; its baseline is the
// all-off slices of the same window.
const ObsTier kObsTiers[] = {
    {"obs.flight_pct", [](bool on) { obs::set_flight_enabled(on); }},
    {"obs.telemetry_pct",
     [](bool on) {
       if (on) {
         obs::telemetry().start();
       } else {
         obs::telemetry().stop();
       }
     }},
    {"obs.metrics_pct", [](bool on) { obs::set_metrics_enabled(on); }},
    {"obs.profile_pct", [](bool on) { obs::set_profile_enabled(on); }},
    {"obs.pmu_pct",
     [](bool on) {
       obs::set_profile_enabled(on);
       obs::set_pmu_mode(on ? obs::PmuMode::kAuto : obs::PmuMode::kOff);
     }},
};

void measure_layers(const Args& a, const fs::path& work,
                    std::vector<Metric>& out, Tally& t) {
  const Workload& w = *a.workload;
  const Setup s = run_setup(w, a.seed);
  std::map<std::string, std::vector<double>> ms;
  const auto add_best = [&](const std::string& name) {
    out.push_back({name, best(ms[name]), "ms"});
  };

  // fusion, then the opt-2 pass pipeline called pass by pass on the
  // opt-0 graph, in PassManager::pipeline order.
  DeployModel stepwise;
  std::size_t ops_removed = 0;
  for (int i = 0; i < a.reps; ++i) {
    DeployModel dm;
    t.record(timed(ms["fusion.convert_ms"], [&] {
      dm = convert_at(*s.model, s.input_shape, 0);
    }));
    const std::size_t before = dm.num_ops();
    t.record(timed(ms["passes.value_ranges_ms"],
                   [&] { (void)compute_value_ranges(dm); }));
    t.record(timed(ms["passes.fold_requants_ms"],
                   [&] { pass_fold_requants(dm); }));
    t.record(timed(ms["passes.dedup_ms"], [&] { pass_dedup(dm); }));
    t.record(timed(ms["passes.dve_ms"], [&] { pass_dve(dm); }));
    t.record(timed(ms["passes.select_solvers_ms"],
                   [&] { pass_select_solvers(dm); }));
    ops_removed = before - dm.num_ops();
    stepwise = std::move(dm);
  }
  DeployModel converted = convert_at(*s.model, s.input_shape, 2);
  t.record(stepwise.plan().render(stepwise) ==
           converted.plan().render(converted));
  for (const char* name :
       {"fusion.convert_ms", "passes.value_ranges_ms",
        "passes.fold_requants_ms", "passes.dedup_ms", "passes.dve_ms",
        "passes.select_solvers_ms"}) {
    add_best(name);
  }
  out.push_back(
      {"passes.ops_removed", static_cast<double>(ops_removed), "count"});

  // xport: save, hex images + testbench, load, first inference.
  const fs::path dir = work / "export";
  const std::string ckpt = (dir / "model.t2c").string();
  const std::string hex = (dir / "hex").string();
  DeployModel loaded;
  for (int i = 0; i < a.reps; ++i) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    t.record(timed(ms["xport.save_ms"],
                   [&] { save_checkpoint(converted, ckpt); }));
    t.record(timed(ms["xport.hex_ms"], [&] {
      (void)emit_verilog_testbench(converted, hex, kHexWordBits);
    }));
    DeployModel dm;
    t.record(timed(ms["xport.load_ms"], [&] { dm = load_checkpoint(ckpt); }));
    ITensor first;
    const bool ok = timed(ms["run.first_ms"],
                          [&] { first = dm.run_int(s.requests[0]); });
    t.record(ok && same(first, s.refs[0]));
    loaded = std::move(dm);
  }
  for (const char* name :
       {"xport.save_ms", "xport.hex_ms", "xport.load_ms", "run.first_ms"}) {
    add_best(name);
  }
  out.push_back({"xport.ckpt_mib",
                 static_cast<double>(fs::file_size(ckpt)) / kMiB, "MiB"});
  out.push_back(
      {"xport.hex_mib", static_cast<double>(dir_bytes(hex)) / kMiB, "MiB"});

  const DeployModel& served = w.serve_loaded ? loaded : converted;
  warm(served, s, t);

  // Solver picks and exported sparsity of the served graph.
  std::int64_t gemms = 0, narrow = 0, zeros = 0, weights = 0;
  for (std::size_t i = 0; i < served.num_ops(); ++i) {
    const DeployOp& op = served.op(i);
    const ITensor* wt = nullptr;
    const solver::SolverChoice* sc = nullptr;
    if (const auto* c = dynamic_cast<const IntConv2dOp*>(&op)) {
      wt = &c->weight();
      sc = &c->solver_choice();
    } else if (const auto* l = dynamic_cast<const IntLinearOp*>(&op)) {
      wt = &l->weight();
      sc = &l->solver_choice();
    } else if (const auto* at = dynamic_cast<const IntAttentionOp*>(&op)) {
      sc = &at->solver_choice();
    }
    if (sc != nullptr) {
      ++gemms;
      narrow += sc->i8 ? 1 : 0;
    }
    if (wt != nullptr) {
      weights += wt->numel();
      zeros += std::count(wt->vec().begin(), wt->vec().end(), 0);
    }
  }
  out.push_back({"solver.narrow_share",
                 gemms > 0 ? static_cast<double>(narrow) /
                                 static_cast<double>(gemms)
                           : 0.0,
                 "ratio"});
  out.push_back({"sparse.zero_share",
                 weights > 0 ? static_cast<double>(zeros) /
                                   static_cast<double>(weights)
                             : 0.0,
                 "ratio"});

  // exec_plan: compile (including packing) timed from outside, plan shape
  // and memory of the served model.
  for (int i = 0; i < a.reps; ++i) {
    t.record(timed(ms["plan.compile_ms"],
                   [&] { (void)ExecutionPlan::compile(served); }));
  }
  add_best("plan.compile_ms");
  const ExecutionPlan& plan = served.plan();
  const auto steps = static_cast<double>(plan.steps().size());
  out.push_back({"plan.steps", steps, "count"});
  out.push_back(
      {"plan.slots", static_cast<double>(plan.num_slots()), "count"});
  out.push_back({"plan.peak_mib",
                 static_cast<double>(served.memory_stats().peak_bytes) / kMiB,
                 "MiB"});
  out.push_back({"plan.packed_mib",
                 static_cast<double>(plan.packed_bytes()) / kMiB, "MiB"});

  const double peak_gops = host_peak_gops();
  const double stream_gbps = host_stream_gbps();
  out.push_back({"host.peak_gops", peak_gops, "GOP/s"});
  out.push_back({"host.stream_gbps", stream_gbps, "GB/s"});

  // Serving windows: one per observability tier and one per pool size
  // (1/2/4 threads) split the --seconds budget evenly. The compared
  // settings alternate in short slices, so machine drift lands on every
  // side alike.
  constexpr int kRounds = 4;
  const double slice_s = a.seconds / 8.0 / kRounds;

  std::vector<double> all_off;
  obs::ProfileReport prof;
  double prof_wall_ms = 0.0;
  double prof_requests = 0.0;
  for (const ObsTier& tier : kObsTiers) {
    std::vector<double> off, on;
    obs::profiler().clear();
    for (int r = 0; r < kRounds; ++r) {
      append(off, serve(served, s, slice_s / 2, t));
      tier.set(true);
      append(on, serve(served, s, slice_s / 2, t));
      tier.set(false);
    }
    out.push_back({tier.metric, 100.0 * (p5(on) / p5(off) - 1.0), "%"});
    append(all_off, off);
    if (std::strcmp(tier.metric, "obs.profile_pct") == 0) {
      prof = obs::profiler().report();
      for (double v : on) prof_wall_ms += v;
      prof_requests = static_cast<double>(on.size());
    }
  }
  obs::profiler().clear();
  out.push_back({"run.p99_ms", quantile(all_off, 0.99), "ms"});
  out.push_back({"run.requests", static_cast<double>(all_off.size()), "count"});
  out.push_back({"plan.step_overhead_us",
                 1e3 * (prof_wall_ms - prof.total_ms) / prof_requests / steps,
                 "us"});

  struct KindCost {
    double ms = 0.0;
    double flops = 0.0;
    double bytes = 0.0;
  };
  std::map<std::string, KindCost> kinds;
  for (const obs::ProfileRow& row : prof.rows) {
    KindCost& k = kinds[row.key.substr(0, row.key.find(':'))];
    k.ms += row.total_ms;
    k.flops += static_cast<double>(row.cost.flops);
    k.bytes +=
        static_cast<double>(row.cost.bytes_read + row.cost.bytes_written);
  }
  for (const char* kind : kOpKinds) {
    const KindCost k = kinds[kind];
    const double sec = k.ms / 1e3;
    const double pct =
        sec <= 0.0 ? 0.0
        : gemm_kind(kind) ? 100.0 * k.flops / sec / 1e9 / peak_gops
                          : 100.0 * k.bytes / sec / 1e9 / stream_gbps;
    const std::string base = std::string("op.") + kind;
    out.push_back({base + ".ms", k.ms / prof_requests, "ms"});
    out.push_back({base + ".share",
                   prof.total_ms > 0.0 ? k.ms / prof.total_ms : 0.0, "ratio"});
    out.push_back({base + ".pct_peak", pct, "%"});
  }

  const int hw = static_cast<int>(
      std::max(1U, std::thread::hardware_concurrency()));
  std::map<int, std::vector<double>> at;
  for (int r = 0; r < kRounds; ++r) {
    for (const int n : {1, 2, 4}) {
      par::set_max_threads(std::min(n, hw));
      append(at[n], serve(served, s, slice_s, t));
    }
  }
  par::set_max_threads(1);
  out.push_back({"parallel.speedup_2t", p5(at[1]) / p5(at[2]), "ratio"});
  out.push_back({"parallel.speedup_4t", p5(at[1]) / p5(at[4]), "ratio"});
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print(const Args& a, const std::vector<Metric>& metrics, const Tally& t) {
  const double failed_share =
      static_cast<double>(t.failed) / static_cast<double>(t.attempted);
  std::printf("bench_deploy_e2e: workload %s, seed %llu, %s\n",
              a.workload->name, static_cast<unsigned long long>(a.seed),
              a.trace ? "per-layer (traced)" : "end-to-end");
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-30s %16.6f ratio (%lld of %lld)\n", "failed_share",
              failed_share, static_cast<long long>(t.failed),
              static_cast<long long>(t.attempted));
  std::printf("{\"build_info\":%s,\"workload\":\"%s\",\"seed\":%llu,"
              "\"threads\":%d}\n",
              build_info_json().c_str(), a.workload->name,
              static_cast<unsigned long long>(a.seed), par::max_threads());
  std::string json = "{\"correct\":";
  json += t.failed == 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(t.attempted);
  json += ",\"failed\":" + std::to_string(t.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "\"" : ",\"") + jsonlite::json_escape(m.name) +
            "\":{\"value\":" + num(m.value) + ",\"unit\":\"" +
            jsonlite::json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const WorkDir work(a.work_dir);
    // Every phase, the reference outputs included, runs on a 1-thread
    // pool; only the traced run's pool sweep changes it.
    par::set_max_threads(1);
    std::vector<Metric> metrics;
    Tally t;
    if (a.trace) {
      measure_layers(a, work.path(), metrics, t);
    } else {
      measure_end_to_end(a, work.path(), metrics, t);
    }
    print(a, metrics, t);
    return t.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_deploy_e2e: %s\n", e.what());
    return 2;
  }
}
