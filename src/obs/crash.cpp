#include "obs/crash.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define T2C_HAVE_BACKTRACE 1
#endif
#endif
#ifndef T2C_HAVE_BACKTRACE
#define T2C_HAVE_BACKTRACE 0
#endif

#include "obs/flight.h"
#include "obs/log.h"
#include "obs/telemetry.h"
#include "util/build_info.h"
#include "util/sigsafe.h"
#include "util/stopwatch.h"

namespace t2c::obs {

namespace {

// All crash-path state is static and preallocated: a signal handler can
// touch nothing else.
constexpr std::size_t kDirCap = 512;
constexpr std::size_t kBundleCap = 256 * 1024;
constexpr std::size_t kBuildInfoCap = 4096;
constexpr int kMaxBundleEvents = static_cast<int>(kFlightCollectMax);
constexpr int kMaxBacktrace = 64;
constexpr int kMaxActiveOut = 256;

char g_dir[kDirCap];                  // "" = not configured
std::atomic<int> g_max_events{96};
char g_build_info[kBuildInfoCap];     // prerendered at install time
char g_bundle[kBundleCap];            // JSON scratch (latch-serialized)
char g_altstack[64 * 1024];
std::atomic<bool> g_installed{false};
std::atomic<bool> g_latch{false};     // exactly one bundle per process
std::atomic<std::uint32_t> g_seq{0};  // filename uniquifier (tests)

const int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE};
struct sigaction g_old_actions[sizeof(kFatalSignals) / sizeof(int)];

// ---- tiny signal-safe string building (paths; JSON goes via SigsafeJson)

std::size_t append_str(char* buf, std::size_t cap, std::size_t at,
                       const char* s) {
  while (*s != '\0' && at + 1 < cap) buf[at++] = *s++;
  buf[at] = '\0';
  return at;
}

std::size_t append_u64(char* buf, std::size_t cap, std::size_t at,
                       std::uint64_t v) {
  char tmp[24];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + (v % 10));
    v /= 10;
  } while (v != 0);
  while (n > 0 && at + 1 < cap) buf[at++] = tmp[--n];
  buf[at] = '\0';
  return at;
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
  }
  return "SIG?";
}

// Renders the bundle into g_bundle. Signal context allowed; caller holds
// the latch.
std::size_t render_bundle(const char* reason_kind, int sig,
                          const siginfo_t* si, double stall_age_ms) {
  util::SigsafeJson j(g_bundle, kBundleCap);
  j.begin_obj();
  j.key("schema");
  j.str("t2c.postmortem.v1");

  j.key("reason");
  j.begin_obj();
  j.key("kind");
  j.str(reason_kind);
  if (sig != 0) {
    j.key("signal");
    j.str(signal_name(sig));
    j.key("signo");
    j.num(static_cast<std::int64_t>(sig));
    if (si != nullptr) {
      j.key("si_code");
      j.num(static_cast<std::int64_t>(si->si_code));
      j.key("si_addr");
      j.hex(reinterpret_cast<std::uint64_t>(si->si_addr));
    }
  }
  if (stall_age_ms > 0) {
    j.key("stall_age_ms");
    j.num(stall_age_ms);
    j.key("stall_deadline_ms");
    j.num(telemetry().stall_deadline_ms());
  }
  j.end_obj();

  j.key("t_mono_ns");
  j.num(mono_now_ns());
  struct timespec ts;
  if (clock_gettime(CLOCK_REALTIME, &ts) == 0) {
    j.key("t_unix_s");
    j.num(static_cast<std::int64_t>(ts.tv_sec));
  }
  j.key("pid");
  j.num(static_cast<std::int64_t>(getpid()));

  j.key("build_info");
  j.raw(g_build_info[0] != '\0' ? g_build_info : "{}");

  // Lock-free vitals only: the mutex-guarded metrics registry and window
  // store are off-limits here (the crashing thread may hold their locks).
  const FlightStats st = flight_stats();
  j.key("metrics");
  j.begin_obj();
  j.key("requests_started");
  j.num_u(telemetry().requests_started_count());
  j.key("requests_done");
  j.num_u(telemetry().requests_done_count());
  j.key("flight_events");
  j.num_u(st.recorded);
  j.key("flight_dropped");
  j.num_u(st.dropped());
  j.key("flight_rings");
  j.num(static_cast<std::int64_t>(st.rings));
  j.key("steps_recorded");
  j.num_u(st.steps);
  j.key("last_step");
  j.str(st.last_step_ns >= 0 ? flight_key_name(st.last_step_key) : "none");
  j.key("last_step_age_ms");
  j.num(st.last_step_ns >= 0
            ? static_cast<double>(mono_now_ns() - st.last_step_ns) / 1e6
            : -1.0);
  j.end_obj();

  static FlightActiveRequest active[kMaxActiveOut];
  const std::size_t nact = flight_active_requests(active, kMaxActiveOut);
  const std::int64_t now = mono_now_ns();
  j.key("active_requests");
  j.begin_arr();
  for (std::size_t i = 0; i < nact; ++i) {
    j.begin_obj();
    j.key("id");
    j.num_u(active[i].id);
    j.key("age_ms");
    j.num(static_cast<double>(now - active[i].start_ns) / 1e6);
    j.end_obj();
  }
  j.end_arr();

  static FlightTaggedEvent events[kMaxBundleEvents];
  int want = g_max_events.load(std::memory_order_relaxed);
  if (want < 1) want = 1;
  if (want > kMaxBundleEvents) want = kMaxBundleEvents;
  const std::size_t nev =
      flight_collect(events, static_cast<std::size_t>(want));
  j.key("flight");
  j.begin_obj();
  j.key("dropped");
  j.num_u(st.dropped());
  j.key("events");
  j.begin_arr();
  for (std::size_t i = 0; i < nev; ++i) {
    j.begin_obj();
    j.key("t_ns");
    j.num(events[i].e.t_ns);
    j.key("kind");
    j.str(flight_kind_name(events[i].e.kind));
    j.key("name");
    j.str(flight_key_name(events[i].e.key));
    j.key("value");
    j.num(events[i].e.value);
    j.key("req");
    j.num_u(events[i].e.req);
    j.key("thread");
    j.str(events[i].thread);
    j.end_obj();
  }
  j.end_arr();
  j.end_obj();

  j.key("backtrace");
  j.begin_arr();
#if T2C_HAVE_BACKTRACE
  static void* frames[kMaxBacktrace];
  const int nf = backtrace(frames, kMaxBacktrace);
  for (int i = 0; i < nf; ++i)
    j.hex(reinterpret_cast<std::uint64_t>(frames[i]));
#else
  // No unwinder available: emit the handler's own address so the array is
  // never empty and the schema stays uniform.
  j.hex(reinterpret_cast<std::uint64_t>(
      reinterpret_cast<void*>(&render_bundle)));
#endif
  j.end_arr();

  j.key("truncated");
  j.boolean(j.truncated());
  j.finish();
  return j.size();
}

// Writes g_bundle[0..len) to <dir>/postmortem.<pid>.<seq>.json.
std::size_t write_bundle_file(std::size_t len, char* path_out,
                              std::size_t path_cap) {
  char path[kDirCap + 64];
  std::size_t at = append_str(path, sizeof(path), 0, g_dir);
  at = append_str(path, sizeof(path), at, "/postmortem.");
  at = append_u64(path, sizeof(path), at,
                  static_cast<std::uint64_t>(getpid()));
  at = append_str(path, sizeof(path), at, ".");
  at = append_u64(path, sizeof(path), at,
                  g_seq.fetch_add(1, std::memory_order_relaxed));
  at = append_str(path, sizeof(path), at, ".json");

  const int fd = ::open(path, O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return 0;
  std::size_t off = 0;
  while (off < len) {
    const ssize_t w = ::write(fd, g_bundle + off, len - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  ::close(fd);
  if (path_out != nullptr && path_cap > 0)
    append_str(path_out, path_cap, 0, path);
  return off;
}

void restore_default(int sig) {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = SIG_DFL;
  sigemptyset(&sa.sa_mask);
  ::sigaction(sig, &sa, nullptr);
}

void fatal_signal_handler(int sig, siginfo_t* si, void* /*uctx*/) {
  if (!g_latch.exchange(true, std::memory_order_acq_rel)) {
    if (g_dir[0] != '\0') {
      const std::size_t len = render_bundle("signal", sig, si, 0.0);
      write_bundle_file(len, nullptr, 0);
    }
  }
  // Die for real, with the wait status a crash of this kind should have.
  restore_default(sig);
  ::raise(sig);
}

bool ensure_dir(const char* dir) {
  // mkdir -p over each '/'-separated prefix; EEXIST is success.
  char tmp[kDirCap];
  std::size_t n = 0;
  for (; dir[n] != '\0' && n + 1 < sizeof(tmp); ++n) tmp[n] = dir[n];
  tmp[n] = '\0';
  if (n == 0) return false;
  for (std::size_t i = 1; i < n; ++i) {
    if (tmp[i] != '/') continue;
    tmp[i] = '\0';
    if (::mkdir(tmp, 0755) != 0 && errno != EEXIST) return false;
    tmp[i] = '/';
  }
  if (::mkdir(tmp, 0755) != 0 && errno != EEXIST) return false;
  struct stat sb;
  return ::stat(tmp, &sb) == 0 && S_ISDIR(sb.st_mode);
}

}  // namespace

bool install_crash_handlers(const CrashConfig& cfg) {
  if (cfg.dir.empty() || cfg.dir.size() >= kDirCap) return false;
  if (!ensure_dir(cfg.dir.c_str())) return false;
  std::memcpy(g_dir, cfg.dir.c_str(), cfg.dir.size() + 1);
  g_max_events.store(cfg.max_events, std::memory_order_relaxed);

  // Everything a handler will need is resolved/allocated now, in normal
  // context: the telemetry hub singleton, the flight ring for this
  // thread, the prerendered build_info block, and backtrace()'s lazily
  // loaded unwinder.
  (void)telemetry();
  set_flight_enabled(true);
  flight_register_thread("main");
  const std::string bi = build_info_json();
  const std::size_t n =
      bi.size() < kBuildInfoCap - 1 ? bi.size() : kBuildInfoCap - 1;
  std::memcpy(g_build_info, bi.c_str(), n);
  g_build_info[n] = '\0';
#if T2C_HAVE_BACKTRACE
  void* warm[4];
  (void)backtrace(warm, 4);
#endif

  if (!g_installed.exchange(true, std::memory_order_acq_rel)) {
    stack_t ss;
    std::memset(&ss, 0, sizeof(ss));
    ss.ss_sp = g_altstack;
    ss.ss_size = sizeof(g_altstack);
    ::sigaltstack(&ss, nullptr);

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &fatal_signal_handler;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    for (std::size_t i = 0; i < sizeof(kFatalSignals) / sizeof(int); ++i)
      ::sigaction(kFatalSignals[i], &sa, &g_old_actions[i]);
  }
  log_info("crash: handlers armed, postmortems to ", cfg.dir);
  return true;
}

void uninstall_crash_handlers() {
  if (!g_installed.exchange(false, std::memory_order_acq_rel)) return;
  for (std::size_t i = 0; i < sizeof(kFatalSignals) / sizeof(int); ++i)
    ::sigaction(kFatalSignals[i], &g_old_actions[i], nullptr);
}

bool crash_handlers_installed() {
  return g_installed.load(std::memory_order_acquire);
}

std::size_t write_postmortem(const char* reason_kind, double stall_age_ms,
                             char* path_out, std::size_t path_cap) {
  if (g_dir[0] == '\0') return 0;
  if (g_latch.exchange(true, std::memory_order_acq_rel)) return 0;
  const std::size_t len =
      render_bundle(reason_kind, 0, nullptr, stall_age_ms);
  return write_bundle_file(len, path_out, path_cap);
}

void crash_escalate_stall(double age_ms) {
  char path[kDirCap + 64];
  path[0] = '\0';
  const std::size_t n = write_postmortem("stall", age_ms, path, sizeof(path));
  if (n > 0) {
    log_error("crash: stall watchdog fired (age ", age_ms,
              " ms); postmortem at ", path);
  } else {
    log_error("crash: stall watchdog fired (age ", age_ms,
              " ms); no postmortem written");
  }
  // Disarm SIGABRT so abort() terminates immediately instead of routing
  // back through the (already-latched) handler.
  restore_default(SIGABRT);
  ::abort();
}

void crash_reset_latch_for_test() {
  g_latch.store(false, std::memory_order_release);
}

}  // namespace t2c::obs
