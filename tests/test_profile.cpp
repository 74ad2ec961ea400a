// Execution profiler tests (DESIGN.md §3.8): aggregation and percentiles,
// shape-derived cost models, multi-track trace export, JSON escaping
// round-trips, the step record path staying allocation-free and exact
// under concurrent runs, full-length step names, and the headline
// guarantee — CNN and ViT profiles report identical op counts, FLOPs, and
// bytes at 1, 4, and 16 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "alloc_count.h"
#include "core/parallel.h"
#include "core/registry.h"
#include "core/t2c.h"
#include "deploy/exec_plan.h"
#include "deploy/int_ops.h"
#include "deploy/vit_ops.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/jsonlite.h"

namespace t2c {
namespace {

/// Restores the pool size on scope exit.
struct ThreadGuard {
  int saved = par::max_threads();
  ~ThreadGuard() { par::set_max_threads(saved); }
};

/// Saves/restores every observability toggle and clears the shared
/// profiler/recorder/registry so profile tests cannot leak state.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
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

TEST_F(ProfileTest, RecordStepAggregatesAndRanksByTotalTime) {
  obs::Profiler& p = obs::profiler();
  obs::StepSample s;
  s.cost.flops = 100;
  s.cost.macs = 50;
  s.cost.bytes_read = 800;
  s.cost.bytes_written = 80;
  const obs::StepKey conv_key = obs::step_key("conv");
  for (int i = 1; i <= 100; ++i) {
    s.ms = static_cast<double>(i);
    obs::record_step(obs::kTierProfile, conv_key, s);
  }
  obs::StepSample cheap;
  cheap.ms = 1.0;
  obs::record_step(obs::kTierProfile, obs::step_key("cheap"), cheap);
  EXPECT_EQ(p.num_keys(), 2u);

  const obs::ProfileReport r = p.report();
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].key, "conv");  // 5050 ms dwarfs 1 ms
  const obs::ProfileRow& conv = r.rows[0];
  EXPECT_EQ(conv.calls, 100);
  EXPECT_DOUBLE_EQ(conv.total_ms, 5050.0);
  EXPECT_DOUBLE_EQ(conv.mean_ms, 50.5);
  // Samples are 1..100: linear interpolation lands between the ranks.
  EXPECT_NEAR(conv.p50_ms, 50.5, 1.0);
  EXPECT_NEAR(conv.p95_ms, 95.0, 1.5);
  EXPECT_NEAR(conv.p99_ms, 99.0, 1.5);
  EXPECT_EQ(conv.cost.flops, 100 * 100);
  EXPECT_EQ(conv.cost.macs, 100 * 50);
  EXPECT_EQ(conv.cost.bytes_read, 100 * 800);
  EXPECT_EQ(conv.cost.bytes_written, 100 * 80);
  EXPECT_NEAR(conv.intensity, 10000.0 / 88000.0, 1e-9);
  EXPECT_NEAR(conv.time_pct + r.rows[1].time_pct, 100.0, 1e-9);
  EXPECT_EQ(r.total_flops, 10000);
  EXPECT_EQ(r.total_macs, 5000);
  EXPECT_EQ(r.total_bytes, 88000);

  p.clear();
  EXPECT_EQ(p.num_keys(), 0u);
}

TEST_F(ProfileTest, ConvAndLinearCostsFollowShapes) {
  // 2x4x8x8 input, 6 output channels, k3 s1 p1 => output 2x6x8x8.
  ConvSpec spec;
  spec.in_channels = 4;
  spec.out_channels = 6;
  spec.kernel = 3;
  spec.padding = 1;
  ITensor w({6, 4, 3, 3});
  const IntConv2dOp conv(std::move(w), spec);
  ITensor x({2, 4, 8, 8});
  ITensor y({2, 6, 8, 8});
  const obs::OpCost cc = conv.cost({&x}, y);
  const std::int64_t expect_macs = y.numel() * 4 * 3 * 3;
  EXPECT_EQ(cc.macs, expect_macs);
  EXPECT_EQ(cc.flops, 2 * expect_macs);
  // i64 path: the patch panels (filled once straight from x, read back
  // once by the register tile) are part of the modeled traffic — cols = n
  // * ic * k^2 * oh * ow patches; the weights are read in place.
  const std::int64_t cols = 2 * 4 * 3 * 3 * 8 * 8;
  EXPECT_EQ(cc.bytes_read, (x.numel() + cols + 6 * 4 * 3 * 3) * 8);
  EXPECT_EQ(cc.bytes_written, (y.numel() + cols) * 8);

  const IntLinearOp fc(ITensor({5, 16}));
  ITensor fx({3, 16});
  ITensor fy({3, 5});
  const obs::OpCost lc = fc.cost({&fx}, fy);
  EXPECT_EQ(lc.macs, 3 * 5 * 16);
  EXPECT_EQ(lc.flops, 2 * lc.macs);
  // i64 linear reads x + the packed weight panels, and charges the one-
  // time panel pack as written-once traffic.
  EXPECT_EQ(lc.bytes_read, (fx.numel() + 5 * 16) * 8);
  EXPECT_EQ(lc.bytes_written, (fy.numel() + 5 * 16) * 8);

  // Element-wise default (IntAdd): one flop per output element, traffic =
  // both operands read + output written.
  const IntAddOp add(-127, 127);
  ITensor a({4, 4});
  ITensor b({4, 4});
  ITensor s({4, 4});
  const obs::OpCost ac = add.cost({&a, &b}, s);
  EXPECT_EQ(ac.flops, 16);
  EXPECT_EQ(ac.macs, 0);
  EXPECT_EQ(ac.bytes_read, 2 * 16 * 8);
  EXPECT_EQ(ac.bytes_written, 16 * 8);
}

TEST_F(ProfileTest, DirectDepthwiseCostHasNoPatchTraffic) {
  // 2x8x8x8 depthwise k3 p1 on the direct kernels: the input is read once,
  // the weights once, no patch panels on either path, and the fused
  // requant adds its per-output work.
  ConvSpec spec;
  spec.in_channels = spec.out_channels = 8;
  spec.groups = 8;
  spec.kernel = 3;
  spec.padding = 1;
  IntConv2dOp conv(ITensor({8, 1, 3, 3}), spec);
  ITensor x({2, 8, 8, 8});
  ITensor y({2, 8, 8, 8});
  const std::int64_t macs = y.numel() * 1 * 3 * 3;
  // The int64 direct loop: int64 weights, no epilogue.
  const obs::OpCost wide = conv.cost({&x}, y);
  EXPECT_EQ(wide.macs, macs);
  EXPECT_EQ(wide.bytes_read, (x.numel() + 8 * 9) * 8);
  EXPECT_EQ(wide.bytes_written, y.numel() * 8);
  solver::SolverChoice c;
  c.name = "dwconv_i8_fused";
  c.i8 = true;
  c.fuse = true;
  conv.set_solver_choice(c);
  const obs::OpCost cc = conv.cost({&x}, y);
  EXPECT_EQ(cc.macs, macs + y.numel());
  EXPECT_EQ(cc.flops, 2 * macs + 3 * y.numel());
  EXPECT_EQ(cc.bytes_read, x.numel() * 8 + 2 * 8 * 9);
  EXPECT_EQ(cc.bytes_written, y.numel() * 8);
}

TEST_F(ProfileTest, JsonEscapeRoundTripsHostileLabels) {
  const std::string hostile = "layer\"7\\na\tme\n\x01\x1f end";
  // Direct escape -> parse round trip through a JSON document.
  const jsonlite::JsonValue doc = jsonlite::parse_json(
      "{\"k\":\"" + jsonlite::json_escape(hostile) + "\"}");
  EXPECT_EQ(doc.at("k").str, hostile);

  // The same label must survive the profile writer end to end.
  obs::StepSample s;
  s.ms = 1.0;
  s.cost.flops = 7;
  obs::record_step(obs::kTierProfile, obs::step_key(hostile), s);
  const jsonlite::JsonValue prof =
      jsonlite::parse_json(obs::profiler().report().to_json());
  ASSERT_EQ(prof.at("ops").array.size(), 1u);
  EXPECT_EQ(prof.at("ops").array[0].at("op").str, hostile);

  // And the trace + metrics writers.
  obs::set_trace_enabled(true);
  {
    const obs::TraceSpan span(hostile, "test");
  }
  const jsonlite::JsonValue trace =
      jsonlite::parse_json(obs::tracer().to_json());
  bool found = false;
  for (const jsonlite::JsonValue& e : trace.at("traceEvents").array) {
    found = found || e.at("name").str == hostile;
  }
  EXPECT_TRUE(found);
  obs::set_trace_enabled(false);

  obs::set_metrics_enabled(true);
  obs::metrics().counter(hostile).add(3);
  const jsonlite::JsonValue met =
      jsonlite::parse_json(obs::metrics().to_json());
  EXPECT_EQ(met.at("counters").at(hostile).number, 3.0);
}

TEST_F(ProfileTest, TraceExportsNamedMultiTrackEventsAndCounters) {
  const ThreadGuard guard;
  par::set_max_threads(4);
  obs::set_trace_enabled(true);
  // A pooled region big enough to fan out across all four workers.
  std::atomic<std::int64_t> sink{0};
  par::parallel_for(0, 4000, 1, [&](std::int64_t i0, std::int64_t i1) {
    sink.fetch_add(i1 - i0, std::memory_order_relaxed);
  });
  obs::set_trace_enabled(false);
  EXPECT_EQ(sink.load(), 4000);

  const jsonlite::JsonValue doc =
      jsonlite::parse_json(obs::tracer().to_json());
  std::set<double> named_tids;
  std::set<std::string> names;
  std::set<double> span_tids;
  std::size_t counters = 0;
  double last_ts = -1.0;
  for (const jsonlite::JsonValue& e : doc.at("traceEvents").array) {
    const std::string& ph = e.at("ph").str;
    if (ph == "M") {
      if (e.at("name").str == "thread_name") {
        named_tids.insert(e.at("tid").number);
        names.insert(e.at("args").at("name").str);
      }
      continue;
    }
    EXPECT_GE(e.at("ts").number, last_ts) << "ts not monotonic";
    last_ts = e.at("ts").number;
    if (ph == "X") span_tids.insert(e.at("tid").number);
    if (ph == "C") {
      ++counters;
      EXPECT_TRUE(e.at("args").has("value"));
    }
  }
  // Four chunks -> busy spans on >= 2 distinct tracks (the caller runs
  // part 0; three pool workers run the rest), every one of them named.
  EXPECT_GE(span_tids.size(), 2u);
  for (const double tid : span_tids) EXPECT_EQ(named_tids.count(tid), 1u);
  EXPECT_GE(counters, 2u);  // pool.occupancy brackets the region
  EXPECT_TRUE(names.count("main") == 1);
  bool has_worker = false;
  for (const std::string& n : names) {
    has_worker = has_worker || n.rfind("pool.worker.", 0) == 0;
  }
  EXPECT_TRUE(has_worker);
}

TEST_F(ProfileTest, PoolRegionMetricsRecorded) {
  const ThreadGuard guard;
  par::set_max_threads(4);
  obs::set_metrics_enabled(true);
  par::parallel_for(0, 1 << 14, 1, [](std::int64_t, std::int64_t) {});
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  ASSERT_EQ(snap.counters.count("pool.regions"), 1u);
  EXPECT_GE(snap.counters.at("pool.regions"), 1);
  EXPECT_GE(snap.counters.at("pool.chunks"),
            snap.counters.at("pool.regions"));
  ASSERT_EQ(snap.histograms.count("pool.imbalance"), 1u);
  const obs::HistogramStats& imb = snap.histograms.at("pool.imbalance");
  EXPECT_GE(imb.count, 1);
  EXPECT_GE(imb.min, 1.0);  // slowest/mean is >= 1 by construction
  EXPECT_EQ(snap.histograms.count("pool.region_ms"), 1u);
}

// ---- end-to-end fixtures ----

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

void qat_train(Sequential& model, const SyntheticImageDataset& data,
               int epochs, float lr) {
  TrainerOptions o;
  o.train.epochs = epochs;
  o.train.lr = lr;
  auto tr = make_trainer("qat", model, data, o);
  tr->fit();
  freeze_quantizers(model);
}

DeployModel tiny_resnet_deploy(const SyntheticImageDataset& data) {
  ModelConfig mc;
  mc.num_classes = 4;
  mc.width_mult = 0.25F;
  mc.seed = 3;
  auto model = make_resnet20(mc);
  qat_train(*model, data, 2, 0.08F);
  ConvertConfig cfg;
  cfg.input_shape = {3, 8, 8};
  T2CConverter conv(cfg);
  return conv.convert(*model);
}

DeployModel tiny_vit_deploy(const SyntheticImageDataset& data) {
  ModelConfig mc;
  mc.num_classes = 4;
  mc.width_mult = 1.0F;
  mc.vit_dim = 16;
  mc.vit_depth = 2;
  mc.vit_heads = 2;
  mc.vit_patch = 4;
  mc.seed = 3;
  auto model = make_vit(mc);
  qat_train(*model, data, 2, 0.02F);
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

/// Per-key thread-invariant profile fields: calls + the four cost sums.
using CostMap =
    std::map<std::string, std::tuple<std::int64_t, std::int64_t, std::int64_t,
                                     std::int64_t, std::int64_t>>;

CostMap profile_costs(const DeployModel& dm, const ITensor& q) {
  obs::profiler().clear();
  (void)dm.run_int(q);
  CostMap m;
  for (const obs::ProfileRow& r : obs::profiler().report().rows) {
    m[r.key] = {r.calls, r.cost.flops, r.cost.macs, r.cost.bytes_read,
                r.cost.bytes_written};
  }
  return m;
}

TEST_F(ProfileTest, CnnAndVitProfilesThreadCountInvariant) {
  const ThreadGuard guard;
  SyntheticImageDataset data(tiny_spec());
  const Tensor x = test_batch(data, 8);
  obs::set_profile_enabled(true);
  for (const DeployModel& dm : {tiny_resnet_deploy(data),
                                tiny_vit_deploy(data)}) {
    const ITensor q = dm.quantize_input(x);
    par::set_max_threads(1);
    const CostMap base = profile_costs(dm, q);
    ASSERT_FALSE(base.empty());
    // Repeated layers sharing a label (ViT blocks) aggregate under one
    // key, so calls can exceed one — but never be zero.
    for (const auto& [key, v] : base) {
      EXPECT_GE(std::get<0>(v), 1) << key;
    }
    for (const int t : {4, 16}) {
      par::set_max_threads(t);
      EXPECT_EQ(profile_costs(dm, q), base)
          << "profile diverged at " << t << " threads";
    }
  }
}

// The step record path allocates nothing per step once its rows exist: at
// 4 threads, after one warm instrumented run, a run allocates exactly the
// all-off baseline — with metrics, profile and PMU on, with tracing on too
// (after tracer().clear(), which keeps the buffer's capacity), and with
// everything off again.
TEST_F(ProfileTest, DisabledPathAddsNoAllocations) {
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
  // Warm the plan cache, arena pool, and spare buffers until the per-run
  // allocation count is reproducible.
  for (int i = 0; i < 3; ++i) (void)dm.run_int(q);
  const std::int64_t baseline = allocs_per_run();
  ASSERT_EQ(allocs_per_run(), baseline) << "baseline not stable";

  // The warm run creates the rows, their reservoirs and the registry
  // instruments; later runs only write them.
  obs::set_metrics_enabled(true);
  obs::set_profile_enabled(true);
  obs::set_pmu_mode(obs::PmuMode::kCpuTime);
  (void)dm.run_int(q);
  EXPECT_EQ(allocs_per_run(), baseline) << "metrics + profile + pmu";

  obs::set_trace_enabled(true);
  (void)dm.run_int(q);
  obs::tracer().clear();
  EXPECT_EQ(allocs_per_run(), baseline) << "with tracing";

  obs::set_trace_enabled(false);
  obs::set_pmu_mode(obs::PmuMode::kOff);
  obs::set_profile_enabled(false);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(allocs_per_run(), baseline) << "everything off";
}

/// `<kind>[:<label>]` of every plan step, with its occurrences per run.
std::map<std::string, std::int64_t> step_names(const DeployModel& dm) {
  std::map<std::string, std::int64_t> names;
  for (const ExecutionPlan::Step& st : dm.plan().steps()) {
    const DeployOp& op = dm.op(static_cast<std::size_t>(st.op));
    ++names[op.kind() + (op.label.empty() ? "" : ":" + op.label)];
  }
  return names;
}

/// Names of the plan-step spans ("X" events in category "deploy").
std::multiset<std::string> step_spans() {
  std::multiset<std::string> spans;
  for (std::size_t i = 0; i < obs::tracer().size(); ++i) {
    const obs::TraceRecorder::Event e = obs::tracer().event(i);
    if (e.ph == 'X' && std::string(e.cat) == "deploy") spans.insert(e.name);
  }
  return spans;
}

TEST_F(ProfileTest, ConcurrentRunsKeepExactRowCounts) {
  const ThreadGuard guard;
  par::set_max_threads(4);
  SyntheticImageDataset data(tiny_spec());
  const DeployModel dm = tiny_resnet_deploy(data);
  const ITensor q = dm.quantize_input(test_batch(data, 2));
  const std::map<std::string, std::int64_t> per_run = step_names(dm);

  obs::set_metrics_enabled(true);
  obs::set_profile_enabled(true);
  obs::set_trace_enabled(true);
  constexpr int kClients = 2;
  constexpr int kRuns = 50;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRuns; ++i) (void)dm.run_int(q);
    });
  }
  for (std::thread& t : clients) t.join();
  obs::set_trace_enabled(false);
  obs::set_profile_enabled(false);
  obs::set_metrics_enabled(false);

  const obs::ProfileReport r = obs::profiler().report();
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  ASSERT_EQ(r.rows.size(), per_run.size());
  for (const obs::ProfileRow& row : r.rows) {
    ASSERT_EQ(per_run.count(row.key), 1u) << row.key;
    EXPECT_EQ(row.calls, kClients * kRuns * per_run.at(row.key)) << row.key;
    const auto h = snap.histograms.find("deploy.op_ms." + row.key);
    ASSERT_NE(h, snap.histograms.end()) << row.key;
    EXPECT_EQ(h->second.count, row.calls) << row.key;
  }
  EXPECT_EQ(step_spans().size(),
            static_cast<std::size_t>(kClients * kRuns) *
                dm.plan().steps().size());
}

// Two steps whose names share their first 70 bytes, past the event ring's
// 63-byte key width, keep separate profile rows, histograms and spans.
TEST_F(ProfileTest, LongLabelsStayDistinct) {
  const std::string stem(70, 'L');
  DeployModel dm;
  for (const char* tail : {".a", ".b"}) {
    auto mq = std::make_unique<MulQuantOp>(
        std::vector<std::int64_t>{1}, std::vector<std::int64_t>{0}, 0,
        /*out_min=*/-127, /*out_max=*/127, MqLayout::kPerTensor);
    mq->inputs = {static_cast<int>(dm.num_ops())};
    mq->label = stem + tail;
    dm.set_output(dm.add_op(std::move(mq)));
  }
  obs::set_metrics_enabled(true);
  obs::set_profile_enabled(true);
  obs::set_trace_enabled(true);
  (void)dm.run_int(ITensor({1, 4}));
  obs::set_trace_enabled(false);
  obs::set_profile_enabled(false);
  obs::set_metrics_enabled(false);

  const std::set<std::string> names = {"MulQuant:" + stem + ".a",
                                       "MulQuant:" + stem + ".b"};
  std::set<std::string> rows;
  for (const obs::ProfileRow& row : obs::profiler().report().rows) {
    EXPECT_EQ(row.calls, 1) << row.key;
    rows.insert(row.key);
  }
  EXPECT_EQ(rows, names);
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  for (const std::string& n : names) {
    ASSERT_EQ(snap.histograms.count("deploy.op_ms." + n), 1u) << n;
    EXPECT_EQ(snap.histograms.at("deploy.op_ms." + n).count, 1) << n;
  }
  const std::multiset<std::string> spans = step_spans();
  EXPECT_EQ(std::set<std::string>(spans.begin(), spans.end()), names);
  EXPECT_EQ(spans.size(), 2u);
}

}  // namespace
}  // namespace t2c
