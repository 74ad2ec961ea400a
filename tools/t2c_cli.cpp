// t2c_cli — the whole toolkit from the command line.
//
//   t2c_cli --model resnet20 --dataset cifar10_sim --trainer qat
//           --wq sawb --aq pact --wbits 4 --abits 4 --epochs 8
//           --out run_out --emit-verilog
//
// Trains (or calibrates) the requested configuration, converts it to the
// integer-only deploy graph, reports fake-quant and deployed accuracy, and
// writes the export artifacts. `--list` prints every registered model,
// dataset, trainer and quantizer.
//
// Observability: `--log-level LEVEL` tunes the structured log output
// (trace|debug|info|warn|error|off), `--metrics-json PATH` dumps the metrics
// registry snapshot, and `--trace-json PATH` writes a Chrome trace_event
// file (multi-track: one lane per pool worker plus counter tracks)
// loadable in chrome://tracing or Perfetto. `--profile` prints the per-op
// roofline table (time %, percentiles, arithmetic intensity, effective
// GFLOP/s and GB/s) for the integer deploy phase; `--profile-json PATH`
// dumps the same report as JSON. Every *-json flag accepts `-` to stream
// the JSON to stdout instead of a file.
//
// Live monitoring: `--serve-obs PORT` starts the telemetry plane and an
// HTTP exporter on 127.0.0.1 serving /metrics (Prometheus text exposition
// with sliding-window percentiles and OpenMetrics exemplars on latency
// buckets), /healthz (watchdog; 503 bodies name the stalled step),
// /buildinfo, /requests, /requests/<id> (per-request detail incl. the
// per-op trail for reservoir-retained requests) and /exemplars (the
// tail-latency reservoir); `--loop N` soaks the deployed graph with N
// integer inferences across two client threads so there is live traffic
// to scrape.
//
// Postmortems: `--postmortem-dir DIR` installs async-signal-safe crash
// handlers that write a flight-recorder bundle (t2c.postmortem.v1) on
// SIGSEGV/SIGABRT/SIGBUS/SIGFPE; `--stall-ms MS` tunes the watchdog
// deadline and `--stall-fatal` escalates a stall into a bundle + abort.
// `--version` prints the full build_info stamp and exits.
//
// Dual-path audit: `--audit` replays one test batch through the fake-quant
// and integer paths and prints the per-layer divergence table (SQNR,
// saturation, range utilization); `--audit-json PATH` dumps the report,
// `--audit-golden-dir DIR` writes per-op golden hex vectors for RTL replay,
// `--audit-threshold-db DB` sets the first-divergence threshold.
//
// Kernel solvers: `--list-solvers` prints the ISA rung the int8 kernels
// run at and the solver registry's priority-ordered lists with each
// solver's gates, and exits (DESIGN.md §3.12); every op runs the first
// solver in its list whose gates accept it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "audit/dualpath_audit.h"
#include "core/parallel.h"
#include "core/registry.h"
#include "core/t2c.h"
#include "deploy/exec_plan.h"
#include "models/models.h"
#include "obs/crash.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/profile.h"
#include "obs/prom.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/solver.h"
#include "util/build_info.h"
#include "util/cpuinfo.h"
#include "xport/verilog.h"

namespace {

using namespace t2c;

struct Args {
  std::string model = "resnet20";
  std::string dataset = "cifar10_sim";
  std::string trainer = "qat";
  std::string wq = "minmax";
  std::string aq = "minmax";
  int wbits = 8;
  int abits = 8;
  int stem_head_bits = 0;
  int epochs = 8;
  float lr = 0.1F;
  float width = 0.5F;
  std::string out = "t2c_cli_out";
  bool emit_verilog = false;
  bool list = false;
  std::string log_level;
  std::string metrics_json;
  std::string trace_json;
  bool profile = false;
  std::string profile_json;
  std::string pmu;  ///< --pmu MODE; empty = auto when profiling, else off
  bool audit = false;
  std::string audit_json;
  std::string audit_golden_dir;
  double audit_threshold_db = 20.0;
  int threads = 0;  ///< 0 = leave the pool at its T2C_THREADS/HW default
  int opt_level = 2;      ///< deploy-graph pass pipeline level (0..2)
  std::string plan_dump;  ///< render the execution plan ('-' = stdout)
  int serve_obs = -1;  ///< /metrics port; -1 = off, 0 = ephemeral
  int loop = 0;        ///< soak mode: total run_int iterations after deploy
  bool list_solvers = false;
  std::string postmortem_dir;  ///< crash-handler bundle dir; empty = off
  int stall_ms = 0;            ///< watchdog deadline override; 0 = default
  bool stall_fatal = false;    ///< escalate a watchdog stall to a bundle
  std::string selftest_crash;  ///< hidden: "segv" | "stall" fault injection
};

DatasetSpec dataset_by_name(const std::string& name) {
  static const std::map<std::string, DatasetSpec (*)()> kSets = {
      {"cifar10_sim", &cifar10_sim},   {"cifar100_sim", &cifar100_sim},
      {"imagenet_sim", &imagenet_sim}, {"aircraft_sim", &aircraft_sim},
      {"flowers_sim", &flowers_sim},   {"food101_sim", &food101_sim},
  };
  auto it = kSets.find(name);
  if (it == kSets.end()) {
    std::string known;
    for (const auto& [k, v] : kSets) known += k + " ";
    fail("unknown dataset '" + name + "'; known: " + known);
  }
  return it->second();
}

std::unique_ptr<Sequential> model_by_name(const std::string& name,
                                          const ModelConfig& cfg) {
  if (name == "resnet20") return make_resnet20(cfg);
  if (name == "resnet18") return make_resnet18(cfg);
  if (name == "resnet50") return make_resnet50(cfg);
  if (name == "mobilenet_v1") return make_mobilenet_v1(cfg);
  if (name == "vit") return make_vit(cfg);
  fail("unknown model '" + name +
       "'; known: resnet20 resnet18 resnet50 mobilenet_v1 vit");
}

Args parse(int argc, char** argv) {
  Args a;
  const auto want = [&](int i) -> const char* {
    check(i + 1 < argc, std::string("missing value for ") + argv[i]);
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--model") a.model = want(i++);
    else if (f == "--dataset") a.dataset = want(i++);
    else if (f == "--trainer") a.trainer = want(i++);
    else if (f == "--wq") a.wq = want(i++);
    else if (f == "--aq") a.aq = want(i++);
    else if (f == "--wbits") a.wbits = std::atoi(want(i++));
    else if (f == "--abits") a.abits = std::atoi(want(i++));
    else if (f == "--stem-head-bits") a.stem_head_bits = std::atoi(want(i++));
    else if (f == "--epochs") a.epochs = std::atoi(want(i++));
    else if (f == "--lr") a.lr = static_cast<float>(std::atof(want(i++)));
    else if (f == "--width") a.width = static_cast<float>(std::atof(want(i++)));
    else if (f == "--out") a.out = want(i++);
    else if (f == "--emit-verilog") a.emit_verilog = true;
    else if (f == "--list") a.list = true;
    else if (f == "--log-level") a.log_level = want(i++);
    else if (f == "--metrics-json") a.metrics_json = want(i++);
    else if (f == "--trace-json") a.trace_json = want(i++);
    else if (f == "--profile") a.profile = true;
    else if (f == "--profile-json") {
      a.profile_json = want(i++);
      a.profile = true;
    }
    else if (f == "--pmu") a.pmu = want(i++);
    else if (f == "--audit") a.audit = true;
    else if (f == "--audit-json") { a.audit_json = want(i++); a.audit = true; }
    else if (f == "--audit-golden-dir") {
      a.audit_golden_dir = want(i++);
      a.audit = true;
    }
    else if (f == "--audit-threshold-db") {
      a.audit_threshold_db = std::atof(want(i++));
      a.audit = true;
    }
    else if (f == "--threads") {
      a.threads = std::atoi(want(i++));
      check(a.threads >= 1, "--threads must be >= 1");
    }
    else if (f == "--opt-level") {
      a.opt_level = std::atoi(want(i++));
      check(a.opt_level >= 0 && a.opt_level <= 2,
            "--opt-level must be 0, 1, or 2");
    }
    else if (f == "--plan-dump") a.plan_dump = want(i++);
    else if (f == "--serve-obs") {
      a.serve_obs = std::atoi(want(i++));
      check(a.serve_obs >= 0 && a.serve_obs <= 65535,
            "--serve-obs PORT must be in [0, 65535] (0 = ephemeral)");
    }
    else if (f == "--loop") {
      a.loop = std::atoi(want(i++));
      check(a.loop >= 1, "--loop must be >= 1");
    }
    else if (f == "--list-solvers") a.list_solvers = true;
    else if (f == "--postmortem-dir") a.postmortem_dir = want(i++);
    else if (f == "--stall-ms") {
      a.stall_ms = std::atoi(want(i++));
      check(a.stall_ms >= 1, "--stall-ms must be >= 1");
    }
    else if (f == "--stall-fatal") a.stall_fatal = true;
    else if (f == "--selftest-crash") {
      a.selftest_crash = want(i++);
      check(a.selftest_crash == "segv" || a.selftest_crash == "stall",
            "--selftest-crash must be segv or stall");
    }
    else if (f == "--version") {
      const BuildInfo b = build_info();
      std::printf("t2c_cli %s\n", b.git_sha.c_str());
      std::printf("  compiler:  %s\n", b.compiler.c_str());
      std::printf("  flags:     %s\n", b.flags.c_str());
      std::printf("  isa:       %s\n", b.isa.c_str());
      std::printf("  cpu_model: %s\n", b.cpu_model.c_str());
      std::printf("  threads:   %d\n", b.threads);
      std::exit(0);
    }
    else if (f == "--help") {
      std::puts(
          "usage: t2c_cli [--model M] [--dataset D] [--trainer T]\n"
          "               [--wq Q] [--aq Q] [--wbits N] [--abits N]\n"
          "               [--stem-head-bits N] [--epochs N] [--lr F]\n"
          "               [--width F] [--out DIR] [--emit-verilog] [--list]\n"
          "               [--log-level trace|debug|info|warn|error|off]\n"
          "               [--metrics-json PATH] [--trace-json PATH]\n"
          "               [--profile] [--profile-json PATH]\n"
          "               [--pmu off|auto|cputime|hw]\n"
          "               [--audit] [--audit-json PATH]\n"
          "               [--audit-golden-dir DIR] [--audit-threshold-db DB]\n"
          "               [--threads N] [--opt-level 0|1|2]\n"
          "               [--plan-dump PATH]\n"
          "               [--serve-obs PORT] [--loop N]\n"
          "               [--list-solvers] [--version]\n"
          "               [--postmortem-dir DIR] [--stall-ms MS]\n"
          "               [--stall-fatal]\n"
          "JSON PATHs accept '-' for stdout.\n"
          "--threads sizes the worker pool (default: T2C_THREADS env var,\n"
          "else hardware concurrency); integer outputs are bit-identical\n"
          "at any setting.\n"
          "--opt-level selects the deploy-graph pass pipeline (0 = as\n"
          "emitted, 1 = dedup + dead-value elimination, 2 = + exact requant\n"
          "folding; outputs are bit-identical at every level).\n"
          "--plan-dump writes the liveness-planned execution schedule\n"
          "(arena slots, in-place steps; '-' = stdout).\n"
          "--profile times every executed deploy step and prints the per-op\n"
          "roofline table (time %, p50/p95/p99, arithmetic intensity,\n"
          "effective GFLOP/s and GB/s); op counts and FLOP/byte totals are\n"
          "bit-identical at any --threads setting.\n"
          "--pmu selects the measured-counter tier for --profile: auto\n"
          "(default when profiling) tries perf_event_open and degrades to\n"
          "per-thread CPU time; hw insists and warns on fallback; cputime\n"
          "skips the probe; off disables measurement. T2C_PMU_RAW=r<hex>,..\n"
          "adds up to 4 raw PMU events as extra profile columns.\n"
          "--serve-obs starts the live telemetry plane and an HTTP\n"
          "exporter on 127.0.0.1:PORT (0 picks an ephemeral port; the\n"
          "chosen port is printed) serving /metrics (Prometheus text),\n"
          "/healthz (stall watchdog), /buildinfo, and /requests.\n"
          "--loop N runs N extra integer inferences across two client\n"
          "threads after deployment (soak mode) so the windowed\n"
          "percentiles on /metrics have live traffic to digest.\n"
          "--list-solvers prints the ISA rung the int8 kernels run at and\n"
          "the registered solver table, and exits; each op runs the first\n"
          "solver in its list whose gates accept it.\n"
          "--version prints the build_info stamp (sha, compiler, flags,\n"
          "ISA level, CPU model, threads) and exits.\n"
          "--postmortem-dir installs async-signal-safe crash handlers\n"
          "(SIGSEGV/SIGABRT/SIGBUS/SIGFPE) and enables the flight\n"
          "recorder; a fatal signal writes a postmortem JSON bundle\n"
          "(build_info, last flight events, active requests, backtrace)\n"
          "under DIR before re-raising.\n"
          "--stall-ms overrides the /healthz stall-watchdog deadline\n"
          "(default 10000, or $T2C_STALL_MS).\n"
          "--stall-fatal (requires --postmortem-dir) escalates a watchdog\n"
          "stall to a postmortem bundle + abort instead of just a 503.");
      std::exit(0);
    } else {
      fail("unknown flag '" + f + "' (try --help)");
    }
  }
  return a;
}

// Per-op latency / saturation table from the metrics snapshot: one row per
// `deploy.op_ms.<kind>[:<label>]` histogram, joined with the matching
// `deploy.sat.*` counter, sorted by total time spent.
void print_op_table(const obs::MetricsSnapshot& snap) {
  struct Row {
    std::string key;
    obs::HistogramStats h;
    std::int64_t sat = 0;
    bool has_sat = false;
  };
  const std::string lat_prefix = "deploy.op_ms.";
  std::vector<Row> rows;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind(lat_prefix, 0) != 0) continue;
    Row r;
    r.key = name.substr(lat_prefix.size());
    r.h = h;
    const auto it = snap.counters.find("deploy.sat." + r.key);
    if (it != snap.counters.end()) {
      r.sat = it->second;
      r.has_sat = true;
    }
    rows.push_back(std::move(r));
  }
  if (rows.empty()) return;
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.h.sum > b.h.sum; });
  std::printf("\nper-op deploy profile (by total time):\n");
  std::printf("  %-44s %8s %9s %9s %9s %10s\n", "op", "calls", "mean ms",
              "p50 ms", "p95 ms", "saturated");
  const std::size_t shown = std::min<std::size_t>(rows.size(), 24);
  for (std::size_t i = 0; i < shown; ++i) {
    const Row& r = rows[i];
    char sat[24];
    if (r.has_sat) {
      std::snprintf(sat, sizeof(sat), "%lld",
                    static_cast<long long>(r.sat));
    } else {
      std::snprintf(sat, sizeof(sat), "-");
    }
    std::printf("  %-44s %8lld %9.3f %9.3f %9.3f %10s\n", r.key.c_str(),
                static_cast<long long>(r.h.count), r.h.mean, r.h.p50,
                r.h.p95, sat);
  }
  if (rows.size() > shown) {
    std::printf("  ... and %zu more ops\n", rows.size() - shown);
  }
  const auto total = snap.counters.find("deploy.sat.total");
  if (total != snap.counters.end()) {
    std::printf("  total saturated values: %lld\n",
                static_cast<long long>(total->second));
  }
}

// One-line pool digest from the metrics snapshot: how many pooled regions
// ran, how the chunks balanced, and the region critical-path percentiles.
void print_pool_stats(const obs::MetricsSnapshot& snap) {
  const auto regions = snap.counters.find("pool.regions");
  if (regions == snap.counters.end() || regions->second == 0) return;
  const auto chunks = snap.counters.find("pool.chunks");
  std::printf("pool: %d threads, %lld regions, %lld chunks",
              par::max_threads(),
              static_cast<long long>(regions->second),
              static_cast<long long>(
                  chunks == snap.counters.end() ? 0 : chunks->second));
  const auto imb = snap.histograms.find("pool.imbalance");
  if (imb != snap.histograms.end() && imb->second.count > 0) {
    std::printf(", imbalance p50/p95 %.2f/%.2f", imb->second.p50,
                imb->second.p95);
  }
  const auto reg_ms = snap.histograms.find("pool.region_ms");
  if (reg_ms != snap.histograms.end() && reg_ms->second.count > 0) {
    std::printf(", region p50/p99 %.3f/%.3f ms", reg_ms->second.p50,
                reg_ms->second.p99);
  }
  std::printf("\n");
}

// Emits a JSON document to `path`, where "-" means stdout. File writes log
// the resolved absolute path so artifact locations survive in the log.
void emit_json(const std::string& path, const std::string& what,
               const std::string& json) {
  if (path == "-") {
    std::printf("%s\n", json.c_str());
    return;
  }
  std::ofstream os(path);
  check(os.good(), what + ": cannot open for writing: " + path);
  os << json << '\n';
  obs::log_info(what, ": wrote ",
                std::filesystem::absolute(path).string());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (!a.log_level.empty()) {
      obs::set_log_level(obs::parse_log_level(a.log_level));
    }
    if (a.threads > 0) par::set_max_threads(a.threads);
    // The CLI is a reporting tool: metrics are always on (the per-op table
    // below depends on them); tracing only when someone asked for the file.
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(!a.trace_json.empty());
    obs::set_profile_enabled(a.profile);
    if (a.stall_ms > 0) {
      obs::telemetry().set_stall_deadline_ms(static_cast<double>(a.stall_ms));
    }
    // Crash handlers before any heavy work: once installed, the flight
    // recorder is on and a fatal signal anywhere below leaves a bundle.
    if (!a.postmortem_dir.empty()) {
      obs::CrashConfig pm;
      pm.dir = a.postmortem_dir;
      check(obs::install_crash_handlers(pm),
            "crash: failed to install handlers");
    }
    if (a.stall_fatal) {
      check(!a.postmortem_dir.empty(),
            "--stall-fatal requires --postmortem-dir");
      obs::telemetry().set_stall_action(
          [](double age_ms) { obs::crash_escalate_stall(age_ms); });
      obs::telemetry().start();
    }
    // Live plane first so /metrics answers during training and conversion
    // too, not just once the soak loop starts.
    obs::PromExporter exporter;
    if (a.serve_obs >= 0) {
      obs::telemetry().start();
      check(exporter.start(a.serve_obs), "obs: exporter failed to bind");
      std::printf("obs: serving /metrics on port %d\n", exporter.port());
      std::fflush(stdout);
    }
    // Counter measurement defaults to auto whenever profiling is on: the
    // probe resolves the best available tier (hardware group, CPU-time
    // fallback, or disabled via --pmu off) and the profile banner / logs
    // say which one actually ran.
    const obs::PmuMode pmu_mode = !a.pmu.empty()
                                      ? obs::parse_pmu_mode(a.pmu.c_str())
                                      : (a.profile ? obs::PmuMode::kAuto
                                                   : obs::PmuMode::kOff);
    obs::set_pmu_mode(pmu_mode);
    if (a.profile) {
      obs::log_info("pmu: tier ", obs::pmu_tier_name(obs::pmu_tier()));
    }
    if (a.list) {
      std::printf("models:     resnet20 resnet18 resnet50 mobilenet_v1 vit\n");
      std::printf("datasets:   cifar10_sim cifar100_sim imagenet_sim "
                  "aircraft_sim flowers_sim food101_sim\n");
      std::printf("trainers:  ");
      for (const auto& t : registered_trainers()) std::printf(" %s", t.c_str());
      std::printf("\nquantizers:");
      for (const auto& q : registered_quantizers()) {
        std::printf(" %s", q.c_str());
      }
      std::printf("\n");
      return 0;
    }
    if (a.list_solvers) {
      std::printf("int8 kernels run at %s (T2C_ISA caps the rung)\n",
                  util::isa_description().c_str());
      std::printf("registered solvers (priority order per op):\n");
      std::printf("  %-10s %-22s %s\n", "op", "solver", "gates");
      for (const auto& s : solver::Registry::instance().solvers()) {
        std::printf("  %-10s %-22s %s\n", solver::op_kind_name(s.op),
                    s.name.c_str(), s.gates.empty() ? "-" : s.gates.c_str());
      }
      return 0;
    }

    const DatasetSpec spec = dataset_by_name(a.dataset);
    SyntheticImageDataset data(spec);
    ModelConfig mc;
    mc.num_classes = spec.classes;
    mc.width_mult = a.width;
    mc.qcfg.weight_quantizer = a.wq;
    mc.qcfg.act_quantizer = a.aq;
    mc.qcfg.wbits = a.wbits;
    mc.qcfg.abits = a.abits;
    mc.stem_head_bits = a.stem_head_bits;
    auto model = model_by_name(a.model, mc);

    std::printf("%s on %s: %s trainer, W%d/A%d (%s/%s)\n", a.model.c_str(),
                a.dataset.c_str(), a.trainer.c_str(), a.wbits, a.abits,
                a.wq.c_str(), a.aq.c_str());

    TrainerOptions opts;
    opts.train.epochs = a.epochs;
    opts.train.lr = a.lr;
    if (a.trainer == "ssl_xd") {
      opts.teacher_factory = [&] { return model_by_name(a.model, mc); };
    }
    {
      const obs::TraceSpan span("train", "cli");
      // PTQ trainers calibrate a pre-trained model: give them fp32 weights.
      if (a.trainer.rfind("ptq", 0) == 0) {
        set_quantizer_bypass(*model, true);
        TrainerOptions fp = opts;
        auto pre = make_trainer("supervised", *model, data, fp);
        pre->fit();
        std::printf("fp32 pre-training accuracy: %.2f%%\n", pre->evaluate());
        set_quantizer_bypass(*model, false);
      }
      auto trainer = make_trainer(a.trainer, *model, data, std::move(opts));
      trainer->fit();
      std::printf("fake-quant accuracy: %.2f%%\n", trainer->evaluate());
    }

    freeze_quantizers(*model);
    ConvertConfig ccfg;
    ccfg.input_shape = {spec.channels, spec.height, spec.width};
    ccfg.opt_level = a.opt_level;
    T2C t2c_api(*model, ccfg);
    DeployModel chip = [&] {
      const obs::TraceSpan span("convert", "cli");
      return t2c_api.nn2chip(/*save_model=*/true, a.out);
    }();
    if (!a.plan_dump.empty()) {
      emit_json(a.plan_dump, "plan", chip.plan().render(chip));
    }
    {
      const obs::TraceSpan span("deploy", "cli");
      std::printf("integer-deployed accuracy: %.2f%%\n",
                  chip.evaluate(data.test_images(), data.test_labels()));
    }
    if (a.loop > 0) {
      // Soak mode: repeated integer inference across client threads, each
      // iteration wrapped in a RequestScope so /metrics and /requests show
      // per-request latency and attribution while this runs.
      const obs::TraceSpan span("soak", "cli");
      Shape one_shape = data.test_images().shape();
      one_shape[0] = 1;
      Tensor one(std::move(one_shape));
      for (std::int64_t i = 0; i < one.numel(); ++i) {
        one[i] = data.test_images()[i];
      }
      const ITensor q = chip.quantize_input(one);
      constexpr int kClients = 2;
      std::printf("soak: %d iterations across %d client threads\n", a.loop,
                  kClients);
      std::fflush(stdout);
      std::atomic<int> remaining{a.loop};
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
          while (remaining.fetch_sub(1, std::memory_order_relaxed) > 0) {
            const obs::RequestScope req;
            (void)chip.run_int(q);
          }
        });
      }
      for (auto& t : clients) t.join();
      std::printf("soak: done\n");
      std::fflush(stdout);
    }
    if (!a.selftest_crash.empty()) {
      // Fault injection for the postmortem integration tests: run a few
      // real inferences first so the flight rings hold genuine step and
      // request history, then crash or wedge on purpose.
      Shape s1 = data.test_images().shape();
      s1[0] = 1;
      Tensor one(std::move(s1));
      for (std::int64_t i = 0; i < one.numel(); ++i) {
        one[i] = data.test_images()[i];
      }
      const ITensor q1 = chip.quantize_input(one);
      for (int i = 0; i < 3; ++i) {
        const obs::RequestScope req;
        (void)chip.run_int(q1);
      }
      std::printf("selftest-crash: %s\n", a.selftest_crash.c_str());
      std::fflush(stdout);
      if (a.selftest_crash == "segv") {
        volatile int* vp = nullptr;
        *vp = 42;
      }
      // stall: stop stepping and wait for the watchdog to escalate (with
      // --stall-fatal that ends in a bundle + abort; without it, forever).
      for (;;) {
        std::this_thread::sleep_for(std::chrono::seconds(1));
      }
    }
    std::printf("%s\n", chip.summary_text().c_str());
    std::printf("artifacts under %s/ (model.t2c, hex/)\n", a.out.c_str());
    if (a.audit) {
      const obs::TraceSpan span("audit", "cli");
      // One small batch is enough: the auditor compares every intermediate
      // tensor, not just the logits.
      const std::int64_t n = std::min<std::int64_t>(8, data.test_images().size(0));
      Shape s = data.test_images().shape();
      s[0] = n;
      Tensor batch(std::move(s));
      // [N,C,H,W] storage is contiguous: the first n images are a flat prefix.
      for (std::int64_t i = 0; i < batch.numel(); ++i) {
        batch[i] = data.test_images()[i];
      }
      AuditConfig acfg;
      acfg.threshold_db = a.audit_threshold_db;
      acfg.golden_dir = a.audit_golden_dir;
      const AuditReport report =
          run_dualpath_audit(*model, chip, batch, acfg);
      std::printf("\ndual-path divergence audit (%lld images):\n%s",
                  static_cast<long long>(n), report.table_text().c_str());
      if (!a.audit_golden_dir.empty()) {
        std::printf("golden vectors: %zu files under %s/\n",
                    report.golden_files.size(), a.audit_golden_dir.c_str());
      }
      if (!a.audit_json.empty()) {
        emit_json(a.audit_json, "audit", report.to_json());
      }
    }
    if (a.emit_verilog) {
      std::printf("testbench: %s\n",
                  emit_verilog_testbench(chip, a.out + "/rtl", 8).c_str());
    }

    print_op_table(obs::metrics().snapshot());
    if (a.profile) {
      const obs::ProfileReport report = obs::profiler().report();
      std::printf("\n%s", report.table_text().c_str());
      print_pool_stats(obs::metrics().snapshot());
      if (!a.profile_json.empty()) {
        emit_json(a.profile_json, "profile", report.to_json());
      }
    }
    if (!a.metrics_json.empty()) {
      emit_json(a.metrics_json, "metrics", obs::metrics().to_json());
    }
    if (!a.trace_json.empty()) {
      std::printf("chrome trace: %zu events\n", obs::tracer().size());
      emit_json(a.trace_json, "trace", obs::tracer().to_json());
    }
    // Exporter and aggregator go first: both read the registry, so they
    // must be down before it is torn out from under them.
    if (a.serve_obs >= 0) {
      exporter.stop();
      obs::telemetry().stop();
    }
    // Registry teardown also flips metrics off. Any Counter/Gauge/Histogram
    // reference taken above dangles after this line — this must stay the
    // last registry touch before return.
    obs::metrics().reset();
    return 0;
  } catch (const t2c::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
