// Observability layer: counters/gauges/histograms, deterministic JSON,
// trace span nesting, log levels/sinks, and an instrumented DeployModel
// run producing per-op latency and saturation metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "core/parallel.h"
#include "deploy/deploy_model.h"
#include "deploy/int_ops.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace t2c {
namespace {

// All tests share one process-wide registry/recorder/logger: save and
// restore every global toggle so obs tests cannot leak state into the
// rest of the suite (which assumes observability off).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = obs::log_level();
    obs::metrics().reset();
    obs::tracer().clear();
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::set_log_level(saved_level_);
    obs::set_log_sink({});
    obs::metrics().reset();
    obs::tracer().clear();
  }

 private:
  obs::LogLevel saved_level_ = obs::LogLevel::kInfo;
};

TEST_F(ObsTest, CounterAddsAndResets) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(ObsTest, GaugeSetAndSetMax) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set_max(1.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set_max(7.0);  // higher: wins
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.set(0.5);  // plain set always overwrites
  EXPECT_DOUBLE_EQ(g.value(), 0.5);
}

TEST_F(ObsTest, HistogramStatsAndPercentiles) {
  obs::Histogram h({1.0, 10.0, 100.0});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // 1 sample <= 1, 9 in (1,10], 90 in (10,100]: the median interpolates
  // inside the (10,100] bucket; loose bounds are what matters.
  EXPECT_GT(h.percentile(0.5), 10.0);
  EXPECT_LT(h.percentile(0.5), 100.0);
  EXPECT_GE(h.percentile(0.95), h.percentile(0.5));
  EXPECT_LE(h.percentile(1.0), 100.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 1);
  EXPECT_EQ(buckets[1], 9);
  EXPECT_EQ(buckets[2], 90);
  EXPECT_EQ(buckets[3], 0);
  h.observe(1e9);  // overflow bucket
  EXPECT_EQ(h.bucket_counts()[3], 1);
}

TEST_F(ObsTest, RegistryReturnsSameInstanceForSameName) {
  auto& a = obs::metrics().counter("x.same");
  auto& b = obs::metrics().counter("x.same");
  EXPECT_EQ(&a, &b);
  auto& h1 = obs::metrics().histogram("x.h", {1.0, 2.0});
  auto& h2 = obs::metrics().histogram("x.h", {99.0});  // bounds ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST_F(ObsTest, SnapshotJsonIsDeterministicAndSorted) {
  obs::metrics().counter("b.count").add(2);
  obs::metrics().counter("a.count").add(1);
  obs::metrics().gauge("z.gauge").set(1.5);
  obs::metrics().histogram("m.hist", {1.0}).observe(0.5);
  const std::string j1 = obs::metrics().to_json();
  const std::string j2 = obs::metrics().to_json();
  EXPECT_EQ(j1, j2);
  // Sorted keys: "a.count" renders before "b.count".
  EXPECT_LT(j1.find("\"a.count\":1"), j1.find("\"b.count\":2"));
  EXPECT_NE(j1.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(j1.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(j1.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(j1.find("\"z.gauge\":1.5"), std::string::npos);
  EXPECT_NE(j1.find("\"le\":\"inf\""), std::string::npos);
}

// run_int sets its deploy.mem.* gauges on every instrumented run; their
// names outgrow the small-string buffer, so a hit must not build a key.
TEST_F(ObsTest, RegistryHitsWithLongNamesAllocateNothing) {
  if (!kT2cAllocCounting) {
    GTEST_SKIP() << "operator new/delete not replaced under ASan";
  }
  // Pool workers allocate as they start (track names, event rings). One
  // pooled region returns only once every worker is up, so none of that
  // lands inside the count below.
  par::parallel_for(0, par::max_threads(), 1,
                    [](std::int64_t, std::int64_t) {});
  obs::metrics().gauge("deploy.mem.naive_bytes").set(1.0);
  obs::metrics().counter("deploy.mem.naive_count").add(1);
  obs::metrics().histogram("deploy.mem.naive_histo").observe(1.0);
  const std::int64_t before = g_t2c_alloc_count.load();
  obs::metrics().gauge("deploy.mem.naive_bytes").set(2.0);
  obs::metrics().counter("deploy.mem.naive_count").add(1);
  obs::metrics().histogram("deploy.mem.naive_histo").observe(2.0);
  EXPECT_EQ(g_t2c_alloc_count.load(), before);
  EXPECT_DOUBLE_EQ(obs::metrics().gauge("deploy.mem.naive_bytes").value(),
                   2.0);
}

// A snapshot taken while another thread observes stays self-consistent:
// the Prometheus exposition requires the +Inf bucket to equal _count.
TEST_F(ObsTest, SnapshotCountsMatchBucketsDuringObserves) {
  obs::Histogram& h = obs::metrics().histogram("race.h", {1.0, 10.0});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      h.observe(static_cast<double>(i % 20));
    }
  });
  int mismatches = 0;
  for (int i = 0; i < 2000; ++i) {
    const obs::HistogramStats s =
        obs::metrics().snapshot().histograms.at("race.h");
    if (s.cumulative_counts().back() != s.count) ++mismatches;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(mismatches, 0);
}

TEST_F(ObsTest, SnapshotCopiesValues) {
  obs::metrics().counter("snap.c").add(3);
  const auto snap = obs::metrics().snapshot();
  obs::metrics().counter("snap.c").add(100);
  EXPECT_EQ(snap.counters.at("snap.c"), 3);
}

TEST_F(ObsTest, LogSinkCapturesAndLevelFilters) {
  std::vector<std::string> lines;
  obs::set_log_sink([&](obs::LogLevel, const std::string& msg) {
    lines.push_back(msg);
  });
  obs::set_log_level(obs::LogLevel::kWarn);
  obs::log_debug("dropped ", 1);
  obs::log_info("dropped too");
  obs::log_warn("kept ", 2, " args");
  obs::log_error("also kept");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "kept 2 args");
  EXPECT_EQ(lines[1], "also kept");

  obs::set_log_level(obs::LogLevel::kOff);
  obs::log_error("silenced");
  EXPECT_EQ(lines.size(), 2u);
}

TEST_F(ObsTest, ParseLogLevelRoundTripsAndRejects) {
  EXPECT_EQ(obs::parse_log_level("trace"), obs::LogLevel::kTrace);
  EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("error"), obs::LogLevel::kError);
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::kOff);
  EXPECT_THROW(obs::parse_log_level("loud"), t2c::Error);
  EXPECT_STREQ(obs::log_level_name(obs::LogLevel::kDebug), "debug");
}

TEST_F(ObsTest, SpansNestByIntervalContainment) {
  obs::set_trace_enabled(true);
  {
    const obs::TraceSpan outer("outer", "test");
    { const obs::TraceSpan inner("inner", "test"); }
  }
  ASSERT_EQ(obs::tracer().size(), 2u);
  // Spans record on destruction: inner closes first.
  const auto inner = obs::tracer().event(0);
  const auto outer = obs::tracer().event(1);
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);

  const std::string json = obs::tracer().to_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  obs::set_trace_enabled(false);
  { const obs::TraceSpan span("ghost", "test"); }
  EXPECT_EQ(obs::tracer().size(), 0u);
}

// A two-op graph — IntLinear into a deliberately narrow MulQuant — run with
// metrics on must surface per-op latency histograms keyed by kind:label and
// a nonzero MulQuant saturation counter.
TEST_F(ObsTest, InstrumentedDeployRunProducesPerOpMetrics) {
  DeployModel dm;
  ITensor w({2, 4});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = 10;
  auto lin = std::make_unique<IntLinearOp>(std::move(w));
  lin->inputs = {0};
  lin->label = "fc";
  dm.add_op(std::move(lin));
  // Identity rescale (mul = 2^4, frac 4) but output clamped to [-3, 3]:
  // inputs of magnitude ~100 per lane saturate nearly every output.
  auto mq = std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{16}, std::vector<std::int64_t>{0}, 4,
      /*out_min=*/-3, /*out_max=*/3, MqLayout::kPerTensor);
  mq->inputs = {1};
  mq->label = "fc.mq";
  dm.set_output(dm.add_op(std::move(mq)));

  Tensor x({1, 4});
  x[0] = 100.0F;
  x[1] = -100.0F;
  x[2] = 50.0F;
  x[3] = 25.0F;

  obs::set_metrics_enabled(true);
  (void)dm.run(x);
  obs::set_metrics_enabled(false);

  const auto snap = obs::metrics().snapshot();
  ASSERT_TRUE(snap.histograms.count("deploy.op_ms.IntLinear:fc"));
  ASSERT_TRUE(snap.histograms.count("deploy.op_ms.MulQuant:fc.mq"));
  EXPECT_EQ(snap.histograms.at("deploy.op_ms.IntLinear:fc").count, 1);
  EXPECT_EQ(snap.histograms.at("deploy.op_ms.MulQuant:fc.mq").count, 1);
  ASSERT_TRUE(snap.counters.count("deploy.sat.MulQuant:fc.mq"));
  // 10*(100-100+50+25) = 750 >> 3 on both output lanes.
  EXPECT_GT(snap.counters.at("deploy.sat.MulQuant:fc.mq"), 0);
  EXPECT_GT(snap.counters.at("deploy.sat.total"), 0);
  EXPECT_EQ(snap.counters.at("deploy.batches"), 1);
  EXPECT_EQ(snap.counters.at("deploy.images"), 1);
  // Input was quantized against the default [-127,127] grid: 100/1.0 fits,
  // so no input clipping.
  EXPECT_EQ(snap.counters.at("deploy.sat.input_quantize"), 0);
}

TEST_F(ObsTest, ConcurrentInstrumentsKeepExactTotals) {
  // N threads hammer one counter, one keep-the-max gauge and one histogram.
  // Every update path is atomic (fetch_add or a CAS loop), so the totals
  // must come out exact, not approximately right.
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::metrics().counter("hammer.count");
  obs::Gauge& g = obs::metrics().gauge("hammer.peak");
  obs::Histogram& h = obs::metrics().histogram(
      "hammer.obs", {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0});
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        c.add(1);
        g.set_max(static_cast<double>(t * kOps + i));
        h.observe(static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(c.value(), kThreads * kOps);
  // The global max over every thread's sequence.
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>((kThreads - 1) * kOps +
                                                  kOps - 1));
  EXPECT_EQ(h.count(), kThreads * kOps);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 99.0);
  // kOps/100 full cycles of 0..99 per thread; integer-valued doubles this
  // small add exactly in any interleaving.
  const double cycle_sum = 99.0 * 100.0 / 2.0;
  EXPECT_DOUBLE_EQ(h.sum(), kThreads * (kOps / 100) * cycle_sum);
  std::int64_t bucketed = 0;
  for (std::int64_t b : h.bucket_counts()) bucketed += b;
  EXPECT_EQ(bucketed, kThreads * kOps);
}

TEST_F(ObsTest, RegistryResetDisablesCollection) {
  obs::set_metrics_enabled(true);
  obs::metrics().counter("x").add(3);
  obs::metrics().reset();
  EXPECT_FALSE(obs::metrics_enabled());
  EXPECT_TRUE(obs::metrics().snapshot().counters.empty());
}

TEST_F(ObsTest, DisabledRunLeavesRegistryEmpty) {
  DeployModel dm;
  ITensor w({1, 1});
  w[0] = 1;
  auto lin = std::make_unique<IntLinearOp>(std::move(w));
  lin->inputs = {0};
  dm.set_output(dm.add_op(std::move(lin)));
  Tensor x({1, 1});
  x[0] = 1.0F;
  (void)dm.run(x);  // metrics disabled in SetUp
  const auto snap = obs::metrics().snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

}  // namespace
}  // namespace t2c
