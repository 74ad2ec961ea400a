// PMU subsystem tests (DESIGN.md §3.9): mode parsing and tier probing,
// the CPU-time fallback tier, worker-chunk attribution through the
// accumulator, per-op measured columns in the profiler, JSON emission,
// and the two hard guarantees — the disabled path adds zero per-run
// allocations, and the modeled op costs stay thread-count-invariant with
// measurement on. The hardware tier cannot be assumed on CI machines
// (perf_event_paranoid, seccomp, VMs without a PMU), so hardware-only
// assertions run conditionally and the hw-field bookkeeping is exercised
// through explicit PmuSample values instead.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "alloc_count.h"
#include "core/parallel.h"
#include "core/registry.h"
#include "core/t2c.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/jsonlite.h"

namespace t2c {
namespace {

/// Restores the pool size on scope exit.
struct ThreadGuard {
  int saved = par::max_threads();
  ~ThreadGuard() { par::set_max_threads(saved); }
};

/// Clears every observability surface and forces the PMU off around each
/// test so the suite cannot leak an enabled tier into other suites.
class PmuTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_pmu_mode(obs::PmuMode::kOff);
    obs::metrics().reset();
    obs::tracer().clear();
    obs::profiler().clear();
  }
  void TearDown() override {
    obs::set_pmu_mode(obs::PmuMode::kOff);
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::set_profile_enabled(false);
    obs::metrics().reset();
    obs::tracer().clear();
    obs::profiler().clear();
  }
};

/// Burns measurable CPU time; the volatile sink defeats the optimizer.
void spin(std::int64_t iters) {
  volatile std::int64_t sink = 0;
  for (std::int64_t i = 0; i < iters; ++i) sink = sink + i;
}

TEST_F(PmuTest, ModeParsingAndTierNames) {
  EXPECT_EQ(obs::parse_pmu_mode("off"), obs::PmuMode::kOff);
  EXPECT_EQ(obs::parse_pmu_mode("auto"), obs::PmuMode::kAuto);
  EXPECT_EQ(obs::parse_pmu_mode("cputime"), obs::PmuMode::kCpuTime);
  EXPECT_EQ(obs::parse_pmu_mode("hw"), obs::PmuMode::kHardware);
  EXPECT_EQ(obs::parse_pmu_mode("hardware"), obs::PmuMode::kHardware);
  EXPECT_THROW(obs::parse_pmu_mode("fast"), Error);
  EXPECT_THROW(obs::parse_pmu_mode(nullptr), Error);
  EXPECT_STREQ(obs::pmu_tier_name(obs::PmuTier::kDisabled), "disabled");
  EXPECT_STREQ(obs::pmu_tier_name(obs::PmuTier::kCpuTime), "cputime");
  EXPECT_STREQ(obs::pmu_tier_name(obs::PmuTier::kHardware), "hardware");
}

TEST_F(PmuTest, OffModeDisablesCollection) {
  obs::set_pmu_mode(obs::PmuMode::kOff);
  EXPECT_FALSE(obs::pmu_enabled());
  EXPECT_EQ(obs::pmu_tier(), obs::PmuTier::kDisabled);
}

TEST_F(PmuTest, CpuTimeTierMeasuresThreadTime) {
  obs::set_pmu_mode(obs::PmuMode::kCpuTime);
  EXPECT_TRUE(obs::pmu_enabled());
  EXPECT_EQ(obs::pmu_tier(), obs::PmuTier::kCpuTime);
  obs::PmuCounts c0, c1;
  obs::thread_pmu().read(c0);
  spin(2'000'000);
  obs::thread_pmu().read(c1);
  EXPECT_FALSE(c0.hw);  // no hardware group at this tier
  EXPECT_GT(c1.cpu_ns, c0.cpu_ns);
  const obs::PmuSample d = obs::pmu_delta(c0, c1);
  EXPECT_GT(d.cpu_ns, 0);
  EXPECT_FALSE(d.hw);
  EXPECT_EQ(d.cycles, 0);
}

TEST_F(PmuTest, AutoProbeResolvesAnEnabledTier) {
  // auto must land on *some* enabled tier everywhere: hardware where
  // perf_event_open works, cputime in locked-down containers/VMs.
  obs::set_pmu_mode(obs::PmuMode::kAuto);
  EXPECT_TRUE(obs::pmu_enabled());
  const obs::PmuTier tier = obs::pmu_tier();
  EXPECT_NE(tier, obs::PmuTier::kDisabled);
  if (tier == obs::PmuTier::kHardware) {
    obs::PmuCounts c0, c1;
    obs::thread_pmu().read(c0);
    spin(2'000'000);
    obs::thread_pmu().read(c1);
    ASSERT_TRUE(c1.hw);
    const obs::PmuSample d = obs::pmu_delta(c0, c1);
    EXPECT_GT(d.cycles, 0);
    EXPECT_GT(d.instructions, 0);
  }
}

TEST_F(PmuTest, HardwareModeFallsBackCleanlyWhenUnavailable) {
  // Explicitly requesting hw must never error out — on machines without
  // perf_event access it degrades to cputime (with a logged warning).
  obs::set_pmu_mode(obs::PmuMode::kHardware);
  EXPECT_TRUE(obs::pmu_enabled());
  EXPECT_NE(obs::pmu_tier(), obs::PmuTier::kDisabled);
  obs::PmuCounts c;
  obs::thread_pmu().read(c);  // must be safe at whatever tier resolved
  EXPECT_GE(c.cpu_ns, 0);
}

TEST_F(PmuTest, DeltaClampsNegativeAndSampleAccumulates) {
  obs::PmuCounts a, b;
  a.cycles = 100;
  a.instructions = 50;
  a.cpu_ns = 1000;
  a.hw = true;
  b.cycles = 90;  // wraps/multiplex jitter: end < begin must clamp to 0
  b.instructions = 80;
  b.cpu_ns = 1500;
  b.hw = true;
  const obs::PmuSample d = obs::pmu_delta(a, b);
  EXPECT_EQ(d.cycles, 0);
  EXPECT_EQ(d.instructions, 30);
  EXPECT_EQ(d.cpu_ns, 500);
  EXPECT_TRUE(d.hw);

  obs::PmuSample sum;
  sum.accumulate(d);
  sum.accumulate(d);
  EXPECT_EQ(sum.instructions, 60);
  EXPECT_EQ(sum.cpu_ns, 1000);
  EXPECT_TRUE(sum.hw);
  obs::PmuSample cold;
  cold.accumulate(obs::PmuSample{});
  EXPECT_FALSE(cold.hw);
}

TEST_F(PmuTest, WorkerChunksLandInAccumulator) {
  const ThreadGuard guard;
  par::set_max_threads(4);
  obs::set_pmu_mode(obs::PmuMode::kCpuTime);
  obs::PmuCounts a0, a1;
  obs::pmu_worker_acc().snapshot(a0);
  par::parallel_for(0, 4, 1,
                    [](std::int64_t i0, std::int64_t i1) {
                      for (std::int64_t i = i0; i < i1; ++i) spin(2'000'000);
                    });
  obs::pmu_worker_acc().snapshot(a1);
  // Parts 1..3 ran on pool workers and must have deposited their thread
  // CPU time (part 0 runs on the caller and is excluded by design).
  EXPECT_GT(a1.cpu_ns, a0.cpu_ns);
}

TEST_F(PmuTest, ProfilerAggregatesExplicitHardwareSamples) {
  obs::StepSample g;
  g.ms = 4.0;
  g.cost.flops = 1000;
  g.cost.bytes_read = 512;
  g.cost.bytes_written = 128;  // modeled bytes = 640 = 10 lines x 64B
  g.has_pmu = true;
  obs::PmuSample& s = g.pmu;
  s.cycles = 1000;
  s.instructions = 2000;
  s.cache_refs = 100;
  s.cache_misses = 10;
  s.branch_misses = 3;
  s.cpu_ns = 5'000'000;
  s.hw = true;
  const obs::StepKey gemm_key = obs::step_key("gemm");
  obs::record_step(obs::kTierProfile, gemm_key, g);
  obs::record_step(obs::kTierProfile, gemm_key, g);
  obs::StepSample untracked;
  untracked.ms = 1.0;
  obs::record_step(obs::kTierProfile, obs::step_key("untracked"), untracked);

  const obs::ProfileReport r = obs::profiler().report();
  EXPECT_TRUE(r.has_hw_pmu);
  EXPECT_TRUE(r.has_cpu_pmu);
  ASSERT_EQ(r.rows.size(), 2u);
  const obs::ProfileRow& gemm = r.rows[0];
  ASSERT_EQ(gemm.key, "gemm");
  EXPECT_EQ(gemm.pmu_steps, 2);
  EXPECT_EQ(gemm.pmu.cycles, 2000);
  EXPECT_DOUBLE_EQ(gemm.ipc, 2.0);
  EXPECT_DOUBLE_EQ(gemm.miss_rate, 0.1);
  EXPECT_DOUBLE_EQ(gemm.cpu_ms, 10.0);
  EXPECT_DOUBLE_EQ(gemm.measured_bytes, 20 * 64.0);
  // modeled bytes 1280 over 2 calls; measured 1280 => ratio 1.
  EXPECT_DOUBLE_EQ(gemm.measured_vs_modeled, 1.0);
  EXPECT_EQ(r.rows[1].pmu_steps, 0);  // no sample, no columns

  // Measured columns reach both renderings.
  const std::string table = r.table_text();
  EXPECT_NE(table.find("IPC"), std::string::npos);
  EXPECT_NE(table.find("cpu ms"), std::string::npos);
  const jsonlite::JsonValue doc = jsonlite::parse_json(r.to_json());
  ASSERT_TRUE(doc.has("pmu_tier"));
  const jsonlite::JsonValue& row0 = doc.at("ops").array[0];
  ASSERT_TRUE(row0.has("pmu"));
  EXPECT_EQ(row0.at("pmu").at("cycles").number, 2000.0);
  EXPECT_EQ(row0.at("pmu").at("ipc").number, 2.0);
  EXPECT_EQ(row0.at("pmu").at("cache_miss_rate").number, 0.1);
  EXPECT_FALSE(doc.at("ops").array[1].has("pmu"));
  // build_info provenance is stamped on every profile document.
  ASSERT_TRUE(doc.has("build_info"));
  EXPECT_TRUE(doc.at("build_info").has("git_sha"));
  EXPECT_GE(doc.at("build_info").at("threads").number, 1.0);
}

// ---- end-to-end fixtures (mirrors test_profile.cpp) ----

DatasetSpec tiny_spec() {
  DatasetSpec s;
  s.classes = 4;
  s.height = s.width = 8;
  s.train_size = 96;
  s.test_size = 48;
  s.noise = 0.25F;
  s.class_sep = 1.2F;
  s.seed = 5;
  return s;
}

DeployModel tiny_resnet_deploy(const SyntheticImageDataset& data) {
  ModelConfig mc;
  mc.num_classes = 4;
  mc.width_mult = 0.25F;
  mc.seed = 3;
  auto model = make_resnet20(mc);
  TrainerOptions o;
  o.train.epochs = 2;
  o.train.lr = 0.08F;
  auto tr = make_trainer("qat", *model, data, o);
  tr->fit();
  freeze_quantizers(*model);
  ConvertConfig cfg;
  cfg.input_shape = {3, 8, 8};
  T2CConverter conv(cfg);
  return conv.convert(*model);
}

Tensor test_batch(const SyntheticImageDataset& data, std::int64_t n) {
  Tensor x({n, 3, 8, 8});
  for (std::int64_t i = 0; i < n; ++i) {
    x.set0(i, data.test_images().select0(i));
  }
  return x;
}

TEST_F(PmuTest, DeployStepsCarryCpuTimeSamples) {
  const ThreadGuard guard;
  par::set_max_threads(4);
  SyntheticImageDataset data(tiny_spec());
  const DeployModel dm = tiny_resnet_deploy(data);
  const ITensor q = dm.quantize_input(test_batch(data, 4));

  obs::set_profile_enabled(true);
  obs::set_pmu_mode(obs::PmuMode::kCpuTime);
  (void)dm.run_int(q);
  const obs::ProfileReport r = obs::profiler().report();
  EXPECT_EQ(r.pmu_tier, obs::PmuTier::kCpuTime);
  EXPECT_TRUE(r.has_cpu_pmu);
  ASSERT_FALSE(r.rows.empty());
  double total_cpu_ms = 0.0;
  for (const obs::ProfileRow& row : r.rows) {
    // Every executed step was bracketed: the sample count matches calls.
    EXPECT_EQ(row.pmu_steps, row.calls) << row.key;
    total_cpu_ms += row.cpu_ms;
  }
  EXPECT_GT(total_cpu_ms, 0.0);
  EXPECT_NE(r.table_text().find("pmu tier: cputime"), std::string::npos);
}

TEST_F(PmuTest, PmuMetricsCountersRecorded) {
  const ThreadGuard guard;
  par::set_max_threads(2);
  SyntheticImageDataset data(tiny_spec());
  const DeployModel dm = tiny_resnet_deploy(data);
  const ITensor q = dm.quantize_input(test_batch(data, 4));

  obs::set_profile_enabled(true);
  obs::set_metrics_enabled(true);
  obs::set_pmu_mode(obs::PmuMode::kCpuTime);
  (void)dm.run_int(q);
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  ASSERT_EQ(snap.counters.count("pmu.cpu_ns"), 1u);
  EXPECT_GT(snap.counters.at("pmu.cpu_ns"), 0);
  // Hardware-only counters appear only when hw samples landed.
  if (obs::pmu_tier() != obs::PmuTier::kHardware) {
    EXPECT_EQ(snap.counters.count("pmu.cycles"), 0u);
  }
}

TEST_F(PmuTest, ModeledCostsThreadInvariantWithPmuOn) {
  const ThreadGuard guard;
  SyntheticImageDataset data(tiny_spec());
  const DeployModel dm = tiny_resnet_deploy(data);
  const ITensor q = dm.quantize_input(test_batch(data, 8));
  obs::set_profile_enabled(true);
  obs::set_pmu_mode(obs::PmuMode::kAuto);

  using CostMap = std::map<std::string,
                           std::tuple<std::int64_t, std::int64_t, std::int64_t,
                                      std::int64_t, std::int64_t>>;
  const auto costs = [&] {
    obs::profiler().clear();
    (void)dm.run_int(q);
    CostMap m;
    for (const obs::ProfileRow& r : obs::profiler().report().rows) {
      m[r.key] = {r.calls, r.cost.flops, r.cost.macs, r.cost.bytes_read,
                  r.cost.bytes_written};
    }
    return m;
  };
  par::set_max_threads(1);
  const CostMap base = costs();
  ASSERT_FALSE(base.empty());
  // The measured counters move with the partition; the modeled cost
  // columns must not.
  for (const int t : {4, 16}) {
    par::set_max_threads(t);
    EXPECT_EQ(costs(), base) << "modeled costs diverged at " << t
                             << " threads with PMU on";
  }
}

TEST_F(PmuTest, DisabledPmuAddsNoAllocations) {
  if (!kT2cAllocCounting) {
    GTEST_SKIP() << "operator new/delete not replaced under ASan";
  }
  const ThreadGuard guard;
  par::set_max_threads(4);
  SyntheticImageDataset data(tiny_spec());
  const DeployModel dm = tiny_resnet_deploy(data);
  const ITensor q = dm.quantize_input(test_batch(data, 4));

  const auto allocs_per_run = [&] {
    const std::int64_t before = g_t2c_alloc_count.load();
    (void)dm.run_int(q);
    return g_t2c_alloc_count.load() - before;
  };
  for (int i = 0; i < 3; ++i) (void)dm.run_int(q);  // warm plan/arena
  const std::int64_t baseline = allocs_per_run();
  ASSERT_EQ(allocs_per_run(), baseline) << "baseline not stable";

  // An enabled tier routes pooled regions through the instrumented branch
  // (per-chunk stats vector), then disabling must return to the exact
  // baseline — the kDisabled hot path is one relaxed load, no allocation.
  obs::set_pmu_mode(obs::PmuMode::kCpuTime);
  (void)dm.run_int(q);
  obs::set_pmu_mode(obs::PmuMode::kOff);
  (void)dm.run_int(q);  // re-warm
  EXPECT_EQ(allocs_per_run(), baseline);
}

}  // namespace
}  // namespace t2c
