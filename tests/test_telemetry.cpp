// Live telemetry-plane tests (DESIGN.md §3.10): the hub reading event
// rings while a producer writes (no torn events, read + dropped = pushed),
// sliding-window percentiles and aging, monotone window boundaries under
// rapid scrapes, RequestScope nesting and attribution,
// the Prometheus renderer's escaping + cumulative-bucket guarantees, the
// stall watchdog, the embedded HTTP exporter under concurrent writers
// (the TSan target for this plane), and the disabled/enabled hot path
// staying allocation-free.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "core/parallel.h"
#include "deploy/deploy_model.h"
#include "deploy/int_ops.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "obs/telemetry.h"
#include "util/stopwatch.h"

namespace t2c {
namespace {

/// Restores the pool size on scope exit so tests can't leak a setting.
struct ThreadGuard {
  int saved = par::max_threads();
  ~ThreadGuard() { par::set_max_threads(saved); }
};

/// Resets the hub, the rings' step vitals, the registry, and every toggle
/// around each test.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::telemetry().stop();
    obs::flight_clear_for_test();
    obs::telemetry().clear();
    obs::metrics().reset();
  }
  void TearDown() override {
    obs::set_telemetry_enabled(false);
    obs::telemetry().stop();
    obs::flight_clear_for_test();
    obs::telemetry().clear();
    obs::telemetry().set_stall_deadline_ms(10000.0);
    obs::set_metrics_enabled(false);
    obs::metrics().reset();
  }
};

std::unique_ptr<MulQuantOp> scalar_mq(std::int64_t mul, std::int64_t bias,
                                      int frac, std::int64_t lo,
                                      std::int64_t hi) {
  return std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{mul}, std::vector<std::int64_t>{bias}, frac,
      lo, hi, MqLayout::kPerTensor, 0);
}

int add(DeployModel& dm, std::unique_ptr<DeployOp> op, std::vector<int> ins,
        std::string label = "") {
  op->inputs = std::move(ins);
  op->label = std::move(label);
  return dm.add_op(std::move(op));
}

/// Minimal blocking HTTP GET against the exporter (127.0.0.1 only).
std::string http_get(int port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (send(fd, req.data(), req.size(), 0) !=
      static_cast<ssize_t>(req.size())) {
    close(fd);
    return "";
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  return resp;
}

double body_metric(const std::string& resp, const std::string& name) {
  const std::size_t pos = resp.find("\n" + name + " ");
  if (pos == std::string::npos) return -1.0;
  return std::atof(resp.c_str() + pos + 1 + name.size() + 1);
}

/// One completed plan step on the calling thread's ring: the watchdog's
/// heartbeat.
void record_step(const char* name = "test.step") {
  obs::flight_record(obs::FlightKind::kStep, obs::flight_key(name), 0.0);
}

// ---- reading the event rings ----

TEST_F(TelemetryTest, ConcurrentReaderSeesNoTornEvents) {
  // Every field of event i encodes i: t_ns = t0 + i, req = i + 1, and the
  // key/value pair is (keys[i % 3], kValue[i % 3]). Pushes i and i + 2048
  // share a slot and differ in i % 3, so an event stitched from two
  // pushes puts a foreign value into a series or pairs a request id with
  // another push's timestamp. The producer runs until the reader has taken
  // all its snapshots, so every snapshot races live pushes.
  constexpr int kMinEvents = 8 * static_cast<int>(obs::FlightRing::kCapacity);
  constexpr int kSnapshots = 200;
  const std::uint32_t keys[3] = {obs::flight_key("test.torn.a"),
                                 obs::flight_key("test.torn.b"),
                                 obs::flight_key("test.torn.c")};
  const char* names[3] = {"test.torn.a", "test.torn.b", "test.torn.c"};
  constexpr double kValue[3] = {0.25, 1.0, 4.0};  // exact sums
  const std::int64_t t0 = mono_now_ns();
  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> pushed{0};
  std::thread producer([&] {
    obs::FlightRing* ring = obs::flight_register_thread("torn.producer");
    started.store(true, std::memory_order_release);
    std::int64_t i = 0;
    for (; ring != nullptr &&
           (i < kMinEvents || !stop.load(std::memory_order_acquire));
         ++i) {
      obs::FlightEvent e;
      e.t_ns = t0 + i;
      e.value = kValue[i % 3];
      e.req = static_cast<std::uint64_t>(i) + 1;
      e.key = keys[i % 3];
      e.kind = obs::FlightKind::kStep;
      ring->push(e);
    }
    pushed.store(i, std::memory_order_release);
  });
  const auto check_exemplars = [&](const obs::TelemetrySnapshot& snap) {
    for (const auto& s : snap.series) {
      for (const obs::TeleExemplar& x : s.exemplars) {
        if (x.req == 0) continue;
        const auto i = static_cast<std::int64_t>(x.req - 1);
        ASSERT_EQ(x.t_ns, t0 + i);
        ASSERT_EQ(x.value_ms, kValue[i % 3]);
      }
    }
  };
  while (!started.load(std::memory_order_acquire)) {
  }
  std::int64_t read_live = 0;
  for (int n = 0; n < kSnapshots; ++n) {
    const obs::TelemetrySnapshot live = obs::telemetry().snapshot();
    check_exemplars(live);
    read_live = live.events_total;
  }
  stop.store(true, std::memory_order_release);
  producer.join();
  ASSERT_GE(pushed.load(), kMinEvents);
  EXPECT_GT(read_live, 0) << "no snapshot overlapped the producer";
  const obs::TelemetrySnapshot snap = obs::telemetry().snapshot();
  check_exemplars(snap);
  EXPECT_EQ(snap.events_total + snap.dropped_total, pushed.load());
  EXPECT_GT(snap.events_total, 0);
  std::int64_t per_key = 0;
  for (const auto& s : snap.series) {
    for (int j = 0; j < 3; ++j) {
      if (s.name != names[j]) continue;
      EXPECT_EQ(s.total_sum, static_cast<double>(s.total_count) * kValue[j])
          << s.name << " holds a value from another key";
      per_key += s.total_count;
    }
    if (s.name == "deploy.step.latency") {
      EXPECT_EQ(s.total_count, snap.events_total);
    }
  }
  EXPECT_EQ(per_key, snap.events_total);
}

// ---- sliding windows ----

TEST_F(TelemetryTest, SlidingWindowBucketEdgesCoverTheValue) {
  for (const double v : {0.0005, 0.001, 0.0123, 1.0, 33.3, 1e5}) {
    const int b = obs::SlidingWindow::bucket_of(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, obs::SlidingWindow::kBuckets);
    if (b > 0 && b < obs::SlidingWindow::kBuckets - 1) {
      EXPECT_GE(v, obs::SlidingWindow::bucket_lo(b)) << v;
      EXPECT_LT(v, obs::SlidingWindow::bucket_hi(b)) << v;
    }
  }
}

TEST_F(TelemetryTest, SlidingWindowDigestsPercentilesPerWindow) {
  obs::SlidingWindow w;
  const std::int64_t sub = obs::SlidingWindow::kSubNs;
  // Anchor "now" at a sub-window boundary far from zero. Old traffic: 100
  // events of 100 ms, landing 3 sub-windows back (outside the 10 s
  // window, inside 1 m). Fresh traffic: 100 events of 1 ms, in the
  // trailing sub-window.
  const std::int64_t now = sub * 1000;
  for (int i = 0; i < 100; ++i) w.observe(now - 3 * sub, 100.0);
  for (int i = 0; i < 100; ++i) w.observe(now - sub / 2, 1.0);

  const obs::WindowStats w10 = w.digest(2, now);
  EXPECT_EQ(w10.count, 100);
  EXPECT_NEAR(w10.sum, 100.0, 1e-9);
  EXPECT_GT(w10.p50, 0.5);
  EXPECT_LT(w10.p50, 2.0);
  EXPECT_NEAR(w10.rate_per_s, 10.0, 1e-9);

  const obs::WindowStats w1m = w.digest(12, now);
  EXPECT_EQ(w1m.count, 200);
  // Half the merged mass is 1 ms, half 100 ms: p95 sits in the slow half.
  EXPECT_GT(w1m.p95, 50.0);
  EXPECT_LT(w1m.p95, 150.0);

  EXPECT_EQ(w.total_count(), 200);

  // Events older than the whole ring are refused, not misfiled — even
  // when they land on the same slot as a live sub-window (120 subs back
  // wraps the 60-slot ring exactly twice).
  obs::SlidingWindow w2;
  w2.observe(now - sub / 2, 1.0);
  w2.observe(now - sub / 2 - 120 * sub, 1.0);
  EXPECT_EQ(w2.digest(obs::SlidingWindow::kSubWindows, now).count, 1);
}

TEST_F(TelemetryTest, WindowBoundariesMonotoneUnderRapidSnapshots) {
  obs::set_telemetry_enabled(true);
  static const std::uint32_t key = obs::flight_key("test.window.mono");
  obs::flight_record(obs::FlightKind::kStep, key, 1.0);
  std::int64_t prev_taken = 0;
  std::int64_t prev_start = 0;
  std::int64_t prev_end = 0;
  for (int i = 0; i < 200; ++i) {
    const obs::TelemetrySnapshot snap = obs::telemetry().snapshot();
    // All exporter/window timestamps come from the shared monotonic clock
    // (util/stopwatch.h): successive scrapes can never report a window
    // that moves backwards.
    ASSERT_GE(snap.taken_ns, prev_taken);
    prev_taken = snap.taken_ns;
    ASSERT_FALSE(snap.series.empty());
    for (const auto& s : snap.series) {
      ASSERT_GE(s.w10s.start_ns, prev_start);
      ASSERT_GE(s.w10s.end_ns, prev_end);
      ASSERT_EQ(s.w10s.end_ns - s.w10s.start_ns,
                2 * obs::SlidingWindow::kSubNs);
      prev_start = s.w10s.start_ns;
      prev_end = s.w10s.end_ns;
    }
  }
}

// ---- request scopes ----

TEST_F(TelemetryTest, RequestScopeNestsAndRestores) {
  EXPECT_EQ(obs::current_request(), 0u);
  std::uint64_t outer_id = 0;
  {
    const obs::RequestScope outer;
    outer_id = outer.id();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(obs::current_request(), outer_id);
    {
      const obs::RequestScope inner;
      EXPECT_NE(inner.id(), outer_id);
      EXPECT_EQ(obs::current_request(), inner.id());
    }
    EXPECT_EQ(obs::current_request(), outer_id);
  }
  EXPECT_EQ(obs::current_request(), 0u);
}

TEST_F(TelemetryTest, RequestCountersExactEvenWhenEventsDrop) {
  obs::set_telemetry_enabled(true);
  // Overflow the calling thread's ring so the hub lags and drops; the
  // started/done counters must not drift (they bypass the ring).
  static const std::uint32_t key = obs::flight_key("test.req.flood");
  for (int i = 0; i < 3 * static_cast<int>(obs::FlightRing::kCapacity); ++i) {
    obs::flight_record(obs::FlightKind::kStep, key, 0.1);
  }
  for (int i = 0; i < 10; ++i) {
    const obs::RequestScope req;
  }
  const obs::TelemetrySnapshot snap = obs::telemetry().snapshot();
  EXPECT_EQ(snap.requests_started, 10u);
  EXPECT_EQ(snap.requests_done, 10u);
  EXPECT_GT(snap.dropped_total, 0);
}

TEST_F(TelemetryTest, RequestAttributionJoinsStepsAndLatency) {
  obs::telemetry().start();
  static const std::uint32_t key = obs::flight_key("test.req.steps");
  {
    const obs::RequestScope req;
    obs::flight_record(obs::FlightKind::kStep, key, 0.5);
    obs::flight_record(obs::FlightKind::kStep, key, 0.5);
    obs::flight_record(obs::FlightKind::kSaturation, key, 7.0);
  }
  const obs::TelemetrySnapshot snap = obs::telemetry().snapshot();
  obs::telemetry().stop();
  ASSERT_EQ(snap.recent_requests.size(), 1u);
  const obs::RequestRecord& r = snap.recent_requests.back();
  EXPECT_EQ(r.steps, 2);
  EXPECT_EQ(r.saturated, 7);
  EXPECT_GE(r.latency_ms, 0.0);
  bool found = false;
  for (const auto& s : snap.series) {
    if (s.name == "request.latency") {
      found = true;
      EXPECT_EQ(s.total_count, 1);
    }
  }
  EXPECT_TRUE(found);
}

// ---- Prometheus renderer ----

TEST_F(TelemetryTest, PromEscapingAndNames) {
  EXPECT_EQ(obs::prom_escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(obs::prom_metric_name("deploy.op_ms"), "t2c_deploy_op_ms");
  EXPECT_EQ(obs::prom_metric_name("pmu.cache_refs"), "t2c_pmu_cache_refs");
}

TEST_F(TelemetryTest, RenderPrometheusEmitsExactCumulativeBuckets) {
  obs::set_metrics_enabled(true);
  // A histogram whose per-op label carries every character that needs
  // escaping, plus values pinned to known buckets.
  obs::Histogram& h = obs::metrics().histogram(
      "deploy.op_ms.Weird:a\"b\\c\nd", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(5000.0);
  obs::metrics().counter("deploy.sat.MulQuant:fc").add(3);
  const std::string text = obs::render_prometheus();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  const auto has = [&](const std::string& needle) {
    return text.find(needle) != std::string::npos;
  };
  EXPECT_TRUE(has("# TYPE t2c_deploy_op_ms histogram"));
  EXPECT_TRUE(has("op=\"Weird:a\\\"b\\\\c\\nd\""));
  EXPECT_TRUE(has("le=\"1\"} 2"));
  EXPECT_TRUE(has("le=\"10\"} 3"));
  EXPECT_TRUE(has("le=\"100\"} 4"));
  EXPECT_TRUE(has("le=\"+Inf\"} 5"));
  EXPECT_TRUE(has("t2c_deploy_op_ms_count"));
  EXPECT_TRUE(has("# TYPE t2c_deploy_sat_total counter"));
  EXPECT_TRUE(has("t2c_deploy_sat_total{op=\"MulQuant:fc\"} 3"));
}

TEST_F(TelemetryTest, HistogramCumulativeCountsMatchBucketCounts) {
  obs::set_metrics_enabled(true);
  obs::Histogram& h = obs::metrics().histogram("cum.test", {1.0, 2.0, 3.0});
  for (const double v : {0.5, 1.5, 1.6, 2.5, 9.0}) h.observe(v);
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  const obs::HistogramStats& s = snap.histograms.at("cum.test");
  const std::vector<std::int64_t> cum = s.cumulative_counts();
  ASSERT_EQ(cum.size(), 4u);
  EXPECT_EQ(cum[0], 1);
  EXPECT_EQ(cum[1], 3);
  EXPECT_EQ(cum[2], 4);
  EXPECT_EQ(cum[3], 5);
  EXPECT_EQ(cum.back(), s.count);
}

// ---- watchdog ----

TEST_F(TelemetryTest, StallWatchdogIdleFreshAndStalled) {
  double ago = 0.0;
  EXPECT_TRUE(obs::telemetry().healthy(1.0, &ago));  // idle: no step ever
  EXPECT_LT(ago, 0.0);
  record_step();
  EXPECT_TRUE(obs::telemetry().healthy(10000.0, &ago));
  EXPECT_GE(ago, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(obs::telemetry().healthy(0.001));  // 1 us deadline: stalled
}

// ---- HTTP exporter ----

TEST_F(TelemetryTest, ExporterServesRoutes) {
  obs::set_metrics_enabled(true);
  obs::metrics().counter("route.test").add(1);
  obs::PromExporter exporter;
  ASSERT_TRUE(exporter.start(0));
  ASSERT_GT(exporter.port(), 0);
  const std::string metrics = http_get(exporter.port(), "/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200", 0), 0u);
  EXPECT_NE(metrics.find("t2c_route_test_total 1"), std::string::npos);
  const std::string health = http_get(exporter.port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.0 200", 0), 0u);
  const std::string build = http_get(exporter.port(), "/buildinfo");
  EXPECT_NE(build.find("git_sha"), std::string::npos);
  const std::string missing = http_get(exporter.port(), "/nope");
  EXPECT_EQ(missing.rfind("HTTP/1.0 404", 0), 0u);
  exporter.stop();
  EXPECT_FALSE(exporter.running());
}

TEST_F(TelemetryTest, ExporterReports503OnStall) {
  obs::telemetry().set_stall_deadline_ms(0.001);
  record_step();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  obs::PromExporter exporter;
  ASSERT_TRUE(exporter.start(0));
  const std::string health = http_get(exporter.port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.0 503", 0), 0u);
  exporter.stop();
  obs::telemetry().set_stall_deadline_ms(10000.0);
}

TEST_F(TelemetryTest, ConcurrentScrapesUnderProducerLoadStayConsistent) {
  obs::telemetry().start();
  obs::set_metrics_enabled(true);
  obs::PromExporter exporter;
  ASSERT_TRUE(exporter.start(0));
  const int port = exporter.port();

  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 5000;
  static const std::uint32_t key = obs::flight_key("test.scrape.load");
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      obs::flight_register_thread("writer");
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kEventsPerWriter; ++i) {
        obs::flight_record(obs::FlightKind::kStep, key, 0.25);
      }
    });
  }
  const obs::TelemetrySnapshot before = obs::telemetry().snapshot();
  go.store(true, std::memory_order_release);

  double prev_events = -1.0;
  for (int s = 0; s < 10; ++s) {
    const std::string resp = http_get(port, "/metrics");
    ASSERT_EQ(resp.rfind("HTTP/1.0 200", 0), 0u) << "scrape " << s;
    ASSERT_EQ(resp.back(), '\n');
    const double events = body_metric(resp, "t2c_tele_events_total");
    ASSERT_GE(events, prev_events) << "events_total went backwards";
    prev_events = events;
  }
  for (auto& t : writers) t.join();
  exporter.stop();
  obs::telemetry().stop();

  // Conservation: every produced event was either read or dropped.
  const obs::TelemetrySnapshot snap = obs::telemetry().snapshot();
  EXPECT_EQ((snap.events_total - before.events_total) +
                (snap.dropped_total - before.dropped_total),
            static_cast<std::int64_t>(kWriters) * kEventsPerWriter);
  EXPECT_GT(snap.events_total, before.events_total);
}

// ---- hot path allocation accounting ----

ITensor chain_input() {
  return ITensor::from({4096}, std::vector<std::int64_t>(4096, 21));
}

DeployModel chain_model() {
  DeployModel dm;
  int v = add(dm, scalar_mq(3, 1, 2, -5000, 5000), {0}, "mq0");
  v = add(dm, std::make_unique<IntAddOp>(-8000, 8000), {v, v}, "add0");
  v = add(dm, scalar_mq(1, 0, 1, -1000, 1000), {v}, "mq1");
  dm.set_output(v);
  return dm;
}

TEST_F(TelemetryTest, TelemetryHotPathAddsNoAllocations) {
  if (!kT2cAllocCounting) {
    GTEST_SKIP() << "operator new/delete not replaced under ASan";
  }
  const ThreadGuard guard;
  par::set_max_threads(1);  // keep pooled-region variance out of the count
  const DeployModel dm = chain_model();
  const ITensor q = chain_input();

  const auto allocs_per_run = [&] {
    const std::int64_t before = g_t2c_alloc_count.load();
    (void)dm.run_int(q);
    return g_t2c_alloc_count.load() - before;
  };
  for (int i = 0; i < 3; ++i) (void)dm.run_int(q);
  const std::int64_t baseline = allocs_per_run();
  ASSERT_EQ(allocs_per_run(), baseline) << "baseline not stable";

  // Telemetry on: events are fixed-size pushes into a pre-built ring with
  // compile-time-interned keys — after the first run warms the thread's
  // ring, the instrumented path allocates exactly as much as the disabled
  // one.
  obs::set_telemetry_enabled(true);
  (void)dm.run_int(q);  // warm: first push creates this thread's ring
  EXPECT_EQ(allocs_per_run(), baseline);

  obs::set_telemetry_enabled(false);
  EXPECT_EQ(allocs_per_run(), baseline);
}

// ---- exemplars + request detail (DESIGN.md §3.13) ----

TEST_F(TelemetryTest, DigestBucketsSumMatchesDigestCount) {
  obs::SlidingWindow win;
  const std::int64_t t0 = mono_now_ns();
  for (int i = 0; i < 500; ++i) {
    win.observe(t0 + i, 0.001 * (i % 97) + 0.00005);
  }
  const std::int64_t now = t0 + 1000;
  const obs::WindowStats s =
      win.digest(obs::SlidingWindow::kSubWindows, now);
  const auto buckets =
      win.digest_buckets(obs::SlidingWindow::kSubWindows, now);
  std::uint64_t sum = 0;
  for (const std::uint64_t b : buckets) sum += b;
  // The +Inf bucket of the rendered histogram is this same digest count:
  // both views share the sub-window filter at the same taken_ns.
  EXPECT_EQ(static_cast<std::int64_t>(sum), s.count);
  EXPECT_EQ(s.count, 500);
}

TEST_F(TelemetryTest, ExemplarsDecorateBucketsAndResolveToDetail) {
  obs::set_telemetry_enabled(true);
  obs::flight_register_thread();
  static const std::uint32_t key = obs::flight_key("test.exemplar.step");
  std::uint64_t id = 0;
  {
    const obs::RequestScope req;
    id = obs::current_request();
    ASSERT_NE(id, 0u);
    for (int i = 0; i < 6; ++i) {
      obs::flight_record(obs::FlightKind::kStep, key, 0.25 + 0.05 * i);
    }
  }
  const std::string prom = obs::render_prometheus();
  // At least one latency bucket line carries an OpenMetrics exemplar
  // naming this request.
  const std::string marker = "# {req=\"" + std::to_string(id) + "\"}";
  ASSERT_NE(prom.find("t2c_tele_latency_ms_bucket{series=\"deploy.step."
                      "latency\""),
            std::string::npos);
  EXPECT_NE(prom.find(marker), std::string::npos) << prom;

  // /exemplars lists the request with its per-op trail...
  const std::string ex = obs::render_exemplars_json();
  EXPECT_NE(ex.find("\"schema\":\"t2c.exemplars.v1\""), std::string::npos);
  EXPECT_NE(ex.find("\"id\":" + std::to_string(id)), std::string::npos);
  EXPECT_NE(ex.find("test.exemplar.step"), std::string::npos);

  // ...and the id resolves to the same detail on /requests/<id>.
  const std::string detail = obs::render_request_json(id);
  ASSERT_FALSE(detail.empty());
  EXPECT_NE(detail.find("\"steps\":6"), std::string::npos);
  EXPECT_NE(detail.find("\"trail\":[{"), std::string::npos);
  // Unknown ids stay unresolvable.
  EXPECT_TRUE(obs::render_request_json(id + 999999).empty());
}

TEST_F(TelemetryTest, SlowReservoirKeepsSlowestWithTrails) {
  obs::set_telemetry_enabled(true);
  obs::flight_register_thread();
  static const std::uint32_t key = obs::flight_key("test.slow.step");
  // More requests than reservoir slots; remember the slowest id. The
  // recorded latency tracks the loop index, so the last kSlowK are the
  // keepers.
  std::uint64_t slowest = 0;
  for (int r = 0; r < 24; ++r) {
    const obs::RequestScope req;
    slowest = obs::current_request();
    obs::flight_record(obs::FlightKind::kStep, key, 0.1);
    // Stretch latency artificially: RequestScope measures wall time, so
    // sleep a hair longer each round.
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (r + 1)));
  }
  const obs::TelemetrySnapshot snap = obs::telemetry().snapshot();
  ASSERT_FALSE(snap.slow_requests.empty());
  EXPECT_LE(snap.slow_requests.size(), 8u);
  // Sorted slowest-first, every retained record keeps its trail.
  for (std::size_t i = 1; i < snap.slow_requests.size(); ++i) {
    EXPECT_GE(snap.slow_requests[i - 1].latency_ms,
              snap.slow_requests[i].latency_ms);
  }
  for (const obs::RequestRecord& r : snap.slow_requests) {
    EXPECT_FALSE(r.trail.empty());
    EXPECT_GT(r.done_ns, 0);
  }
  bool found = false;
  for (const obs::RequestRecord& r : snap.slow_requests) {
    found = found || r.id == slowest;
  }
  EXPECT_TRUE(found) << "slowest request fell out of the reservoir";
}

TEST_F(TelemetryTest, Stall503BodyNamesStepAndFlightDrops) {
  obs::telemetry().set_stall_deadline_ms(0.001);
  record_step("deploy.step.test.stalled");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  obs::PromExporter exporter;
  ASSERT_TRUE(exporter.start(0));
  const std::string health = http_get(exporter.port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.0 503", 0), 0u);
  EXPECT_NE(health.find("last step: deploy.step.test.stalled"),
            std::string::npos)
      << health;
  EXPECT_NE(health.find("flight dropped: "), std::string::npos);
  exporter.stop();
  obs::telemetry().set_stall_deadline_ms(10000.0);
}

TEST_F(TelemetryTest, StallActionFiresOutsideHubLock) {
  obs::telemetry().set_stall_deadline_ms(1.0);
  static std::atomic<int> fired{0};
  static std::atomic<double> seen_age{0.0};
  fired.store(0);
  obs::telemetry().set_stall_action([](double age_ms) {
    // Touching the hub from inside the action must not deadlock: the
    // aggregator invokes it with the lock released.
    (void)obs::telemetry().stall_deadline_ms();
    seen_age.store(age_ms);
    fired.fetch_add(1);
  });
  obs::telemetry().start();
  record_step();
  for (int i = 0; i < 200 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  obs::telemetry().stop();
  obs::telemetry().set_stall_action(nullptr);
  EXPECT_GE(fired.load(), 1);
  EXPECT_GE(seen_age.load(), 1.0);
  obs::telemetry().set_stall_deadline_ms(10000.0);
}

}  // namespace
}  // namespace t2c
