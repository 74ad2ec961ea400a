// Flight-recorder / crash-postmortem tests (DESIGN.md §3.13): the
// async-signal-safe JSON writer (round-trips, hostile labels, zero
// allocations, truncation that stays parseable), the per-thread seqlock
// rings (overwrite-oldest retention, a lagging cursor reader's drop
// accounting across overwrites and resets), the signal-safe key table,
// the active-request table, the
// cross-ring collector, the disabled hot path staying allocation-free,
// and the postmortem writer — from normal context and from a forked
// child dying on a real SIGSEGV.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "core/parallel.h"
#include "deploy/deploy_model.h"
#include "deploy/int_ops.h"
#include "obs/crash.h"
#include "obs/flight.h"
#include "obs/telemetry.h"
#include "util/jsonlite.h"
#include "util/sigsafe.h"

namespace t2c {
namespace {

using jsonlite::JsonValue;
using jsonlite::parse_json;
using util::SigsafeJson;

// ---- async-signal-safe JSON writer ----

TEST(SigsafeTest, RoundTripParses) {
  char buf[1024];
  SigsafeJson j(buf, sizeof(buf));
  j.begin_obj();
  j.key("int");
  j.num(static_cast<std::int64_t>(-42));
  j.key("uint");
  j.num_u(18446744073709551615ULL);
  j.key("fixed");
  j.num(3.141592);
  j.key("neg");
  j.num(-0.5);
  j.key("flag");
  j.boolean(true);
  j.key("addr");
  j.hex(0xdeadbeefULL);
  j.key("arr");
  j.begin_arr();
  j.num(static_cast<std::int64_t>(1));
  j.num(static_cast<std::int64_t>(2));
  j.begin_obj();
  j.key("nested");
  j.str("ok");
  j.end_obj();
  j.end_arr();
  j.key("raw");
  j.raw("{\"spliced\":true}");
  j.end_obj();
  j.finish();
  ASSERT_FALSE(j.truncated());

  const JsonValue doc = parse_json(buf);
  EXPECT_EQ(doc.at("int").number, -42.0);
  EXPECT_DOUBLE_EQ(doc.at("fixed").number, 3.141592);
  EXPECT_DOUBLE_EQ(doc.at("neg").number, -0.5);
  EXPECT_TRUE(doc.at("flag").boolean);
  EXPECT_EQ(doc.at("addr").str, "0xdeadbeef");
  ASSERT_EQ(doc.at("arr").array.size(), 3u);
  EXPECT_EQ(doc.at("arr").array[2].at("nested").str, "ok");
  EXPECT_TRUE(doc.at("raw").at("spliced").boolean);
}

TEST(SigsafeTest, HostileStringsEscape) {
  char buf[512];
  SigsafeJson j(buf, sizeof(buf));
  j.begin_obj();
  j.key("quote\"back\\slash");
  j.str("line\nbreak\ttab\rret");
  j.key("ctl");
  // Split literals: "\x01b" would be one greedy hex escape.
  j.str("a\x01" "b\x1f");
  j.key("clipped");
  j.str("abcdefgh", 3);
  j.end_obj();
  j.finish();
  ASSERT_FALSE(j.truncated());

  const JsonValue doc = parse_json(buf);
  EXPECT_EQ(doc.at("quote\"back\\slash").str, "line\nbreak\ttab\rret");
  EXPECT_EQ(doc.at("ctl").str, std::string("a\x01") + "b\x1f");
  EXPECT_EQ(doc.at("clipped").str, "abc");
}

TEST(SigsafeTest, NonFiniteNumbersDegradeToZero) {
  char buf[128];
  SigsafeJson j(buf, sizeof(buf));
  j.begin_arr();
  j.num(std::numeric_limits<double>::quiet_NaN());
  j.num(std::numeric_limits<double>::infinity());
  j.num(-std::numeric_limits<double>::infinity());
  j.end_arr();
  j.finish();
  const JsonValue doc = parse_json(buf);
  for (const JsonValue& v : doc.array) EXPECT_EQ(v.number, 0.0);
}

TEST(SigsafeTest, WritingAllocatesNothing) {
  if (!kT2cAllocCounting) {
    GTEST_SKIP() << "operator new/delete not replaced under ASan";
  }
  char buf[2048];
  const std::int64_t before = g_t2c_alloc_count.load();
  SigsafeJson j(buf, sizeof(buf));
  j.begin_obj();
  for (int i = 0; i < 32; ++i) {
    j.key("k");
    j.begin_arr();
    j.num(static_cast<std::int64_t>(i));
    j.num(i * 0.25);
    j.str("value with \"escapes\"\n");
    j.hex(static_cast<std::uint64_t>(i) << 20);
    j.end_arr();
  }
  j.end_obj();
  j.finish();
  EXPECT_EQ(g_t2c_alloc_count.load(), before);
}

// Every truncation point must still yield a parseable document: the
// writer rolls incomplete elements back and finish() closes whatever is
// open. Sweep caps from pathological to roomy.
TEST(SigsafeTest, TruncationAtEveryCapStaysParseable) {
  bool saw_truncated = false;
  bool saw_complete = false;
  for (std::size_t cap = 40; cap <= 900; ++cap) {
    std::vector<char> buf(cap);
    SigsafeJson j(buf.data(), cap);
    j.begin_obj();
    j.key("reason");
    j.begin_obj();
    j.key("kind");
    j.str("signal");
    j.end_obj();
    j.key("events");
    j.begin_arr();
    for (int i = 0; i < 8; ++i) {
      j.begin_obj();
      j.key("name");
      j.str("deploy.step.IntConv2d:stage1.block0.conv1");
      j.key("value");
      j.num(i * 0.125);
      j.end_obj();
    }
    j.end_arr();
    j.key("truncated");
    j.boolean(j.truncated());
    j.finish();
    EXPECT_NO_THROW(parse_json(j.data())) << "cap=" << cap << ": " << j.data();
    EXPECT_EQ(j.depth(), 0) << "cap=" << cap;
    saw_truncated = saw_truncated || j.truncated();
    saw_complete = saw_complete || !j.truncated();
  }
  EXPECT_TRUE(saw_truncated);
  EXPECT_TRUE(saw_complete);
}

// ---- flight recorder ----

class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_flight_enabled(false);
    obs::flight_clear_for_test();
    obs::crash_reset_latch_for_test();
  }
  void TearDown() override {
    obs::uninstall_crash_handlers();
    obs::set_flight_enabled(false);
    obs::flight_clear_for_test();
    obs::crash_reset_latch_for_test();
    obs::telemetry().clear();
  }
};

TEST_F(FlightTest, KindNamesAreStable) {
  EXPECT_STREQ(obs::flight_kind_name(obs::FlightKind::kStep), "step");
  EXPECT_STREQ(obs::flight_kind_name(obs::FlightKind::kRequestStart),
               "request_start");
  EXPECT_STREQ(obs::flight_kind_name(obs::FlightKind::kRequestDone),
               "request_done");
  EXPECT_STREQ(obs::flight_kind_name(obs::FlightKind::kSaturation),
               "saturation");
  EXPECT_STREQ(obs::flight_kind_name(obs::FlightKind::kPoolRegion),
               "pool_region");
  EXPECT_STREQ(obs::flight_kind_name(obs::FlightKind::kMark), "mark");
}

TEST_F(FlightTest, KeyInterningIsStableAndTruncates) {
  const std::uint32_t a = obs::flight_key("flight.test.key_a");
  const std::uint32_t b = obs::flight_key("flight.test.key_b");
  EXPECT_NE(a, b);
  EXPECT_EQ(obs::flight_key("flight.test.key_a"), a);
  EXPECT_STREQ(obs::flight_key_name(a), "flight.test.key_a");
  // Unknown ids (including the sentinel) resolve to "?" instead of UB.
  EXPECT_STREQ(obs::flight_key_name(obs::kFlightNoKey), "?");
  // Names beyond 63 bytes truncate — and therefore collide when they
  // share a 63-byte prefix. That is the accepted cost of fixed-width,
  // signal-safe storage.
  const std::string long_a = std::string(70, 'x') + "a";
  const std::string long_b = std::string(70, 'x') + "b";
  const std::uint32_t la = obs::flight_key(long_a.c_str());
  EXPECT_EQ(std::strlen(obs::flight_key_name(la)), 63u);
  EXPECT_EQ(obs::flight_key(long_b.c_str()), la);
}

TEST_F(FlightTest, RingOverwritesOldestKeepsNewest) {
  obs::FlightRing ring;
  const std::size_t n = obs::FlightRing::kCapacity + 44;
  for (std::size_t i = 0; i < n; ++i) {
    obs::FlightEvent e;
    e.t_ns = static_cast<std::int64_t>(i);
    e.value = static_cast<double>(i);
    e.key = 1;
    e.kind = obs::FlightKind::kMark;
    ring.push(e);
  }
  EXPECT_EQ(ring.pushes(), n);
  EXPECT_EQ(ring.overwritten(), n - obs::FlightRing::kCapacity);

  obs::FlightEvent out[obs::FlightRing::kCapacity];
  const std::size_t got = ring.read_last(out, obs::FlightRing::kCapacity);
  ASSERT_EQ(got, obs::FlightRing::kCapacity);
  // Oldest-first, and exactly the newest kCapacity of the n pushes.
  for (std::size_t i = 0; i < got; ++i) {
    EXPECT_EQ(out[i].t_ns,
              static_cast<std::int64_t>(n - obs::FlightRing::kCapacity + i));
  }
  // A bounded read returns the newest `max_out`, still oldest-first.
  obs::FlightEvent tail[8];
  const std::size_t few = ring.read_last(tail, 8);
  ASSERT_EQ(few, 8u);
  EXPECT_EQ(tail[7].t_ns, static_cast<std::int64_t>(n - 1));
  EXPECT_EQ(tail[0].t_ns, static_cast<std::int64_t>(n - 8));
}

TEST_F(FlightTest, LaggingReaderCountsOverwrittenEvents) {
  constexpr std::size_t kCap = obs::FlightRing::kCapacity;
  obs::FlightRing* ring = obs::flight_register_thread("lagging");
  ASSERT_NE(ring, nullptr);
  const auto push_n = [&](std::size_t n, std::int64_t first) {
    for (std::size_t i = 0; i < n; ++i) {
      obs::FlightEvent e;
      e.t_ns = first + static_cast<std::int64_t>(i);
      e.kind = obs::FlightKind::kMark;
      ring->push(e);
    }
  };
  std::vector<obs::FlightEvent> out(kCap);
  std::uint64_t cursor = ring->head();

  // Three laps behind: the read returns the newest kCap events, oldest
  // first, and counts the two laps it missed.
  push_n(3 * kCap, 0);
  std::uint64_t lost = 0;
  ASSERT_EQ(ring->read_since(&cursor, out.data(), &lost), kCap);
  EXPECT_EQ(lost, 2 * kCap);
  for (std::size_t i = 0; i < kCap; ++i) {
    ASSERT_EQ(out[i].t_ns, static_cast<std::int64_t>(2 * kCap + i));
  }
  lost = 0;
  EXPECT_EQ(ring->read_since(&cursor, out.data(), &lost), 0u);
  EXPECT_EQ(lost, 0u);

  // A reset under the cursor: the 5 unread events are lost to it, and the
  // reader restarts at the reset — no negative (wrapped) drop count.
  push_n(5, 10000);
  obs::flight_clear_for_test();
  push_n(7, 20000);
  ASSERT_EQ(ring->read_since(&cursor, out.data(), &lost), 7u);
  EXPECT_EQ(lost, 5u);
  EXPECT_EQ(out[0].t_ns, 20000);
  EXPECT_EQ(ring->pushes(), 7u);

  // A reset with nothing unread loses nothing.
  obs::flight_clear_for_test();
  push_n(3, 30000);
  lost = 0;
  ASSERT_EQ(ring->read_since(&cursor, out.data(), &lost), 3u);
  EXPECT_EQ(lost, 0u);
  EXPECT_EQ(out[2].t_ns, 30002);
}

TEST_F(FlightTest, ActiveRequestTableClaimsAndReleases) {
  const int s1 = obs::flight_request_begin(101);
  const int s2 = obs::flight_request_begin(202);
  ASSERT_GE(s1, 0);
  ASSERT_GE(s2, 0);
  obs::FlightActiveRequest out[16];
  std::size_t n = obs::flight_active_requests(out, 16);
  std::set<std::uint64_t> ids;
  for (std::size_t i = 0; i < n; ++i) ids.insert(out[i].id);
  EXPECT_TRUE(ids.count(101));
  EXPECT_TRUE(ids.count(202));
  obs::flight_request_end(s1);
  n = obs::flight_active_requests(out, 16);
  ids.clear();
  for (std::size_t i = 0; i < n; ++i) ids.insert(out[i].id);
  EXPECT_FALSE(ids.count(101));
  EXPECT_TRUE(ids.count(202));
  obs::flight_request_end(s2);
  obs::flight_request_end(-1);  // no-op by contract
  EXPECT_EQ(obs::flight_active_requests(out, 16), 0u);
}

TEST_F(FlightTest, CollectMergesRingsInTimeOrder) {
  obs::set_flight_enabled(true);
  obs::flight_register_thread("main");
  const std::uint32_t key = obs::flight_key("flight.test.merge");
  for (int i = 0; i < 20; ++i) {
    obs::flight_record(obs::FlightKind::kMark, key, static_cast<double>(i));
  }
  std::thread other([&] {
    obs::flight_register_thread("other");
    for (int i = 0; i < 20; ++i) {
      obs::flight_record(obs::FlightKind::kStep, key,
                         static_cast<double>(i));
    }
  });
  other.join();

  obs::FlightTaggedEvent out[96];
  const std::size_t n = obs::flight_collect(out, 96);
  ASSERT_GE(n, 40u);
  std::set<std::string> threads;
  std::int64_t last = -1;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(out[i].e.t_ns, last);
    last = out[i].e.t_ns;
    threads.insert(out[i].thread);
  }
  EXPECT_TRUE(threads.count("main"));
  EXPECT_TRUE(threads.count("other"));

  const obs::FlightStats stats = obs::flight_stats();
  EXPECT_GE(stats.recorded, 40u);
  EXPECT_GE(stats.rings, 2);
  EXPECT_GE(stats.steps, 20u);
}

// ---- disabled hot path: zero allocations ----

std::unique_ptr<MulQuantOp> scalar_mq(std::int64_t mul, std::int64_t bias,
                                      int frac, std::int64_t lo,
                                      std::int64_t hi) {
  return std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{mul}, std::vector<std::int64_t>{bias}, frac,
      lo, hi, MqLayout::kPerTensor, 0);
}

DeployModel chain_model() {
  DeployModel dm;
  auto mq0 = scalar_mq(3, 1, 2, -5000, 5000);
  mq0->inputs = {0};
  mq0->label = "mq0";
  int v = dm.add_op(std::move(mq0));
  auto add0 = std::make_unique<IntAddOp>(-8000, 8000);
  add0->inputs = {v, v};
  add0->label = "add0";
  v = dm.add_op(std::move(add0));
  auto mq1 = scalar_mq(1, 0, 1, -1000, 1000);
  mq1->inputs = {v};
  mq1->label = "mq1";
  v = dm.add_op(std::move(mq1));
  dm.set_output(v);
  return dm;
}

TEST_F(FlightTest, DisabledAndEnabledPathsAddNoAllocations) {
  if (!kT2cAllocCounting) {
    GTEST_SKIP() << "operator new/delete not replaced under ASan";
  }
  const int saved_threads = par::max_threads();
  par::set_max_threads(1);
  const DeployModel dm = chain_model();
  const ITensor q = ITensor::from({4096}, std::vector<std::int64_t>(4096, 21));

  const auto allocs_per_run = [&] {
    const std::int64_t before = g_t2c_alloc_count.load();
    (void)dm.run_int(q);
    return g_t2c_alloc_count.load() - before;
  };
  for (int i = 0; i < 3; ++i) (void)dm.run_int(q);
  const std::int64_t baseline = allocs_per_run();
  ASSERT_EQ(allocs_per_run(), baseline) << "baseline not stable";

  // Enabled: events are fixed-slot writes into a pre-registered ring with
  // compile-time-interned keys — after one warm run the recording path
  // allocates exactly what the disabled one does.
  obs::set_flight_enabled(true);
  obs::flight_register_thread("alloc-test");
  (void)dm.run_int(q);  // warm: ring registration, key interning
  EXPECT_EQ(allocs_per_run(), baseline);

  // Disabled again: one relaxed load per step, nothing else.
  obs::set_flight_enabled(false);
  EXPECT_EQ(allocs_per_run(), baseline);
  par::set_max_threads(saved_threads);
}

// ---- postmortem bundles ----

std::string slurp_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string make_temp_dir() {
  char tmpl[] = "t2c_pm_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  return dir == nullptr ? std::string() : std::string(dir);
}

TEST_F(FlightTest, WritePostmortemFromNormalContext) {
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  obs::CrashConfig cfg;
  cfg.dir = dir;
  ASSERT_TRUE(obs::install_crash_handlers(cfg));
  EXPECT_TRUE(obs::crash_handlers_installed());

  const std::uint32_t key = obs::flight_key("flight.test.bundle");
  for (int i = 0; i < 5; ++i) {
    obs::flight_record(obs::FlightKind::kStep, key, 0.5 * i);
  }
  const int slot = obs::flight_request_begin(777);

  char path[512] = {0};
  const std::size_t n = obs::write_postmortem("manual", 0.0, path,
                                              sizeof(path));
  ASSERT_GT(n, 0u);
  const std::string body = slurp_file(path);
  ASSERT_EQ(body.size(), n);

  const JsonValue doc = parse_json(body);
  EXPECT_EQ(doc.at("schema").str, "t2c.postmortem.v1");
  EXPECT_EQ(doc.at("reason").at("kind").str, "manual");
  EXPECT_FALSE(doc.at("build_info").at("git_sha").str.empty());
  EXPECT_FALSE(doc.at("flight").at("events").array.empty());
  bool saw_key = false;
  for (const JsonValue& e : doc.at("flight").at("events").array) {
    saw_key = saw_key || e.at("name").str == "flight.test.bundle";
  }
  EXPECT_TRUE(saw_key);
  ASSERT_FALSE(doc.at("active_requests").array.empty());
  EXPECT_EQ(doc.at("active_requests").array[0].at("id").number, 777.0);
  EXPECT_FALSE(doc.at("backtrace").array.empty());
  EXPECT_EQ(doc.at("backtrace").array[0].str.rfind("0x", 0), 0u);

  // The one-bundle latch: a second write in the same process is refused.
  EXPECT_EQ(obs::write_postmortem("manual", 0.0, nullptr, 0), 0u);

  obs::flight_request_end(slot);
  std::remove(path);
  rmdir(dir.c_str());
}

TEST_F(FlightTest, ForkedChildSegvLeavesValidBundle) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "fork + fatal-signal test is not sanitizer-safe";
#else
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  obs::CrashConfig cfg;
  cfg.dir = dir;
  ASSERT_TRUE(obs::install_crash_handlers(cfg));
  const std::uint32_t key = obs::flight_key("flight.test.child");
  for (int i = 0; i < 8; ++i) {
    obs::flight_record(obs::FlightKind::kStep, key, 1.0 * i);
  }

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: nothing but the faulting store — no malloc, no stdio. The
    // inherited handler must write the bundle and re-raise.
    volatile int* vp = nullptr;
    *vp = 1;
    _exit(97);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  // The filename sequence number is process-global and inherited across
  // fork, so scan for the child's pid instead of assuming ".0.".
  std::string bundle;
  const std::string prefix = "postmortem." + std::to_string(pid) + ".";
  for (const auto& ent : std::filesystem::directory_iterator(dir)) {
    if (ent.path().filename().string().rfind(prefix, 0) == 0) {
      bundle = ent.path().string();
      break;
    }
  }
  const std::string body = slurp_file(bundle);
  ASSERT_FALSE(body.empty()) << "child left no bundle at " << bundle;
  const JsonValue doc = parse_json(body);
  EXPECT_EQ(doc.at("schema").str, "t2c.postmortem.v1");
  EXPECT_EQ(doc.at("reason").at("kind").str, "signal");
  EXPECT_EQ(doc.at("reason").at("signal").str, "SIGSEGV");
  EXPECT_FALSE(doc.at("flight").at("events").array.empty());
  EXPECT_FALSE(doc.at("backtrace").array.empty());

  std::remove(bundle.c_str());
  rmdir(dir.c_str());
#endif
}

}  // namespace
}  // namespace t2c
