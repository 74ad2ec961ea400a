#include "obs/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#endif

namespace t2c::obs {

// The telemetry plane's timestamps must share the trace/stopwatch clock
// (DESIGN.md §3.10): windows and trace spans are joined on time.
static_assert(MonotonicClock::is_steady,
              "telemetry requires the repo-wide monotonic clock");

namespace detail {
std::atomic<bool> g_telemetry_enabled{false};
}  // namespace detail

void set_telemetry_enabled(bool on) {
  detail::g_telemetry_enabled.store(on, std::memory_order_relaxed);
}

namespace {

/// How many completed requests the snapshot retains.
constexpr std::size_t kRecentRequestCap = 64;
/// Active-request attribution bound: entries whose kRequestDone event was
/// overwritten before the hub read it must not leak forever.
constexpr std::size_t kActiveRequestCap = 1024;
/// Aggregator tick; also the staleness bound of a scrape that does not
/// read on demand (ours always does, see snapshot()).
constexpr auto kTick = std::chrono::milliseconds(100);
/// Process gauges refresh every kProcEveryTicks ticks (~1 s).
constexpr int kProcEveryTicks = 10;
/// Per-request trail bound: a request touching more ops keeps the oldest.
constexpr std::size_t kTrailCap = 160;
/// Slowest-request reservoir size and retention window.
constexpr std::size_t kSlowK = 8;
constexpr std::int64_t kSlowWindowNs = 300'000'000'000;  // 5 m

}  // namespace

// ---- request attribution ----

namespace {
std::atomic<std::uint64_t> g_next_request{1};
thread_local std::uint64_t g_current_request = 0;
}  // namespace

std::uint64_t current_request() { return g_current_request; }

RequestScope::RequestScope()
    : id_(g_next_request.fetch_add(1, std::memory_order_relaxed)),
      prev_(g_current_request),
      t0_ns_(mono_now_ns()) {
  g_current_request = id_;
  telemetry().note_request_started();
  if (flight_enabled()) flight_slot_ = flight_request_begin(id_);
  if (event_ring_enabled()) {
    static const std::uint32_t kStartKey = flight_key("request.start");
    flight_record(FlightKind::kRequestStart, kStartKey, 0.0);
  }
}

RequestScope::~RequestScope() {
  if (event_ring_enabled()) {
    const double ms = static_cast<double>(mono_now_ns() - t0_ns_) / 1e6;
    static const std::uint32_t kDoneKey = flight_key("request.latency");
    flight_record(FlightKind::kRequestDone, kDoneKey, ms);
  }
  flight_request_end(flight_slot_);
  telemetry().note_request_done();
  g_current_request = prev_;
}

// ---- sliding windows ----

int SlidingWindow::bucket_of(double value_ms) {
  if (!(value_ms > 0.0)) return 0;
  const double r = value_ms / 1e-3;  // in units of the 1 us first edge
  if (r < 1.0) return 0;
  const int idx = 1 + static_cast<int>(std::floor(std::log2(r) * 4.0));
  return std::min(idx, kBuckets - 1);
}

double SlidingWindow::bucket_lo(int i) {
  return i <= 0 ? 0.0 : 1e-3 * std::exp2(static_cast<double>(i - 1) / 4.0);
}

double SlidingWindow::bucket_hi(int i) {
  return 1e-3 * std::exp2(static_cast<double>(i) / 4.0);
}

void SlidingWindow::observe(std::int64_t t_ns, double value_ms) {
  const std::int64_t sub_start = t_ns - t_ns % kSubNs;
  const auto slot = static_cast<std::size_t>((t_ns / kSubNs) % kSubWindows);
  Sub& s = subs_[slot];
  if (s.start_ns != sub_start) {
    // The slot holds a stale (or no) sub-window: a full wrap of the ring
    // has passed (or this is the first event here). Recycle it.
    if (s.start_ns > sub_start) return;  // event older than the whole ring
    s.start_ns = sub_start;
    s.count = 0;
    s.sum = 0.0;
    s.buckets.fill(0);
  }
  ++s.count;
  s.sum += value_ms;
  ++s.buckets[static_cast<std::size_t>(bucket_of(value_ms))];
  ++total_count_;
  total_sum_ += value_ms;
}

WindowStats SlidingWindow::digest(int nsub, std::int64_t now_ns) const {
  WindowStats w;
  const std::int64_t span = static_cast<std::int64_t>(nsub) * kSubNs;
  w.start_ns = now_ns - span;
  w.end_ns = now_ns;
  std::array<std::uint64_t, kBuckets> merged{};
  for (const Sub& s : subs_) {
    if (s.start_ns < 0 || s.start_ns < w.start_ns || s.start_ns >= now_ns) {
      continue;
    }
    w.count += s.count;
    w.sum += s.sum;
    for (int i = 0; i < kBuckets; ++i) {
      merged[static_cast<std::size_t>(i)] += s.buckets[static_cast<std::size_t>(i)];
    }
  }
  w.rate_per_s = static_cast<double>(w.count) /
                 (static_cast<double>(span) / 1e9);
  if (w.count == 0) return w;
  const auto pct = [&](double p) {
    const double target = p * static_cast<double>(w.count);
    double cum = 0.0;
    for (int i = 0; i < kBuckets; ++i) {
      const auto c = static_cast<double>(merged[static_cast<std::size_t>(i)]);
      if (c <= 0.0) continue;
      if (cum + c >= target) {
        const double lo = bucket_lo(i);
        const double hi = i >= kBuckets - 1 ? lo : bucket_hi(i);
        const double frac =
            std::min(1.0, std::max(0.0, (target - cum) / c));
        return lo + (hi - lo) * frac;
      }
      cum += c;
    }
    return bucket_hi(kBuckets - 1);
  };
  w.p50 = pct(0.50);
  w.p95 = pct(0.95);
  w.p99 = pct(0.99);
  return w;
}

std::array<std::uint64_t, SlidingWindow::kBuckets>
SlidingWindow::digest_buckets(int nsub, std::int64_t now_ns) const {
  std::array<std::uint64_t, kBuckets> merged{};
  const std::int64_t start =
      now_ns - static_cast<std::int64_t>(nsub) * kSubNs;
  for (const Sub& s : subs_) {
    if (s.start_ns < 0 || s.start_ns < start || s.start_ns >= now_ns) {
      continue;
    }
    for (int i = 0; i < kBuckets; ++i) {
      merged[static_cast<std::size_t>(i)] +=
          s.buckets[static_cast<std::size_t>(i)];
    }
  }
  return merged;
}

// ---- hub ----

TelemetryHub& telemetry() {
  static TelemetryHub* hub = new TelemetryHub();
  return *hub;
}

TelemetryHub::TelemetryHub() : scratch_(FlightRing::kCapacity) {
  // Satellite knob: T2C_STALL_MS overrides the built-in 10 s watchdog
  // deadline (the --stall-ms flag overrides both, see t2c_cli).
  if (const char* env = std::getenv("T2C_STALL_MS")) {
    const double v = std::atof(env);
    if (v > 0.0) stall_deadline_ms_.store(v, std::memory_order_relaxed);
  }
}

void TelemetryHub::note_request_started() {
  requests_started_.fetch_add(1, std::memory_order_relaxed);
}

void TelemetryHub::note_request_done() {
  requests_done_.fetch_add(1, std::memory_order_relaxed);
}

void TelemetryHub::start() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (running_.load(std::memory_order_relaxed)) return;
    stop_requested_ = false;
    running_.store(true, std::memory_order_relaxed);
    skip_backlog_locked();
  }
  set_telemetry_enabled(true);
  aggregator_ = std::thread([this] { aggregator_main(); });
}

void TelemetryHub::stop() {
  set_telemetry_enabled(false);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!running_.load(std::memory_order_relaxed)) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  aggregator_.join();
  const std::lock_guard<std::mutex> lock(mu_);
  read_rings_locked();
  running_.store(false, std::memory_order_relaxed);
}

bool TelemetryHub::running() const {
  return running_.load(std::memory_order_relaxed);
}

void TelemetryHub::aggregator_main() {
  int tick = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait_for(lock, kTick, [&] { return stop_requested_; });
    if (stop_requested_) return;
    read_rings_locked();
    if (stall_action_) {
      double age = 0.0;
      if (!healthy(stall_deadline_ms(), &age)) {
        // Fatal escalation (--stall-fatal): invoked outside the hub lock
        // so the action can snapshot vitals freely. It is expected to
        // write a postmortem and abort; if it ever returns, the watchdog
        // simply re-fires next tick.
        const auto action = stall_action_;
        lock.unlock();
        action(age);
        lock.lock();
      }
    }
    if (++tick % kProcEveryTicks == 0) {
      lock.unlock();
      sample_proc_gauges();
      lock.lock();
    }
  }
}

void TelemetryHub::skip_backlog_locked() {
  const int n = flight_ring_count();
  cursors_.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    if (const FlightRing* r = flight_ring(i)) {
      cursors_[static_cast<std::size_t>(i)] = r->head();
    }
  }
}

void TelemetryHub::read_rings_locked() {
  // Rings registered since the last read start at cursor 0: all of their
  // events were recorded after the hub last looked.
  const int n = flight_ring_count();
  if (cursors_.size() < static_cast<std::size_t>(n)) {
    cursors_.resize(static_cast<std::size_t>(n), 0);
  }
  for (int i = 0; i < n; ++i) {
    const FlightRing* r = flight_ring(i);
    if (r == nullptr) continue;
    std::uint64_t lost = 0;
    const std::size_t got = r->read_since(
        &cursors_[static_cast<std::size_t>(i)], scratch_.data(), &lost);
    dropped_total_ += static_cast<std::int64_t>(lost);
    events_total_ += static_cast<std::int64_t>(got);
    for (std::size_t k = 0; k < got; ++k) aggregate_locked(scratch_[k]);
  }
}

void TelemetryHub::aggregate_locked(const FlightEvent& e) {
  static const std::uint32_t kStepAgg = flight_key("deploy.step.latency");
  // Attribution table entry for request `id`. Ids are assigned from one
  // monotone counter, so map order is age order: at the cap (entries whose
  // kRequestDone event was overwritten would otherwise pin slots forever)
  // the oldest record is evicted, never the incoming one.
  const auto request_slot = [&](std::uint64_t id) -> RequestRecord& {
    auto it = active_requests_.find(id);
    if (it == active_requests_.end()) {
      if (active_requests_.size() >= kActiveRequestCap) {
        active_requests_.erase(active_requests_.begin());
      }
      it = active_requests_.emplace(id, RequestRecord{}).first;
      it->second.id = id;
    }
    return it->second;
  };
  switch (e.kind) {
    case FlightKind::kStep: {
      windows_[e.key].observe(e.t_ns, e.value);
      if (e.key != kStepAgg) windows_[kStepAgg].observe(e.t_ns, e.value);
      if (e.req != 0) {
        RequestRecord& rec = request_slot(e.req);
        ++rec.steps;
        if (rec.trail.size() < kTrailCap) {
          rec.trail.push_back(TrailStep{e.key, e.t_ns, e.value});
        }
        // Last-write-wins per bucket: a scrape sees the most recent
        // request that landed an observation there (OpenMetrics
        // semantics — an exemplar is one representative, not a sample).
        step_exemplars_[static_cast<std::size_t>(
            SlidingWindow::bucket_of(e.value))] =
            TeleExemplar{e.req, e.value, e.t_ns};
      }
      break;
    }
    case FlightKind::kSaturation: {
      windows_[e.key].observe(e.t_ns, e.value);
      if (e.req != 0) {
        request_slot(e.req).saturated += static_cast<std::int64_t>(e.value);
      }
      break;
    }
    case FlightKind::kRequestDone: {
      windows_[e.key].observe(e.t_ns, e.value);
      RequestRecord rec;
      const auto it = active_requests_.find(e.req);
      if (it != active_requests_.end()) {
        rec = std::move(it->second);
        active_requests_.erase(it);
      }
      rec.id = e.req;
      rec.latency_ms = e.value;
      rec.done_ns = e.t_ns;
      if (e.req != 0) {
        request_exemplars_[static_cast<std::size_t>(
            SlidingWindow::bucket_of(e.value))] =
            TeleExemplar{e.req, e.value, e.t_ns};
      }
      // Tail-latency reservoir: keep the k slowest completions of the
      // trailing window, full trails included. Expired entries are
      // evicted first so a single historic outlier cannot pin a slot.
      slow_requests_.erase(
          std::remove_if(slow_requests_.begin(), slow_requests_.end(),
                         [&](const RequestRecord& r) {
                           return r.done_ns < e.t_ns - kSlowWindowNs;
                         }),
          slow_requests_.end());
      if (slow_requests_.size() < kSlowK) {
        slow_requests_.push_back(rec);
      } else {
        auto slowest_min = std::min_element(
            slow_requests_.begin(), slow_requests_.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.latency_ms < b.latency_ms;
            });
        if (slowest_min->latency_ms < rec.latency_ms) *slowest_min = rec;
      }
      // The recent FIFO keeps summaries only; trails live in the
      // reservoir, where retention is by slowness, not recency.
      rec.trail.clear();
      rec.trail.shrink_to_fit();
      recent_requests_.push_back(std::move(rec));
      if (recent_requests_.size() > kRecentRequestCap) {
        recent_requests_.erase(recent_requests_.begin());
      }
      break;
    }
    default:
      break;  // request starts, pool regions, marks: black box only
  }
}

TelemetrySnapshot TelemetryHub::snapshot() {
  const std::lock_guard<std::mutex> lock(mu_);
  read_rings_locked();
  TelemetrySnapshot snap;
  snap.taken_ns = mono_now_ns();
  snap.dropped_total = dropped_total_;
  snap.events_total = events_total_;
  snap.requests_started = requests_started_.load(std::memory_order_relaxed);
  snap.requests_done = requests_done_.load(std::memory_order_relaxed);
  snap.recent_requests = recent_requests_;
  for (const RequestRecord& r : slow_requests_) {
    if (r.done_ns >= snap.taken_ns - kSlowWindowNs) {
      snap.slow_requests.push_back(r);
    }
  }
  std::sort(snap.slow_requests.begin(), snap.slow_requests.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.latency_ms > b.latency_ms;
            });
  for (const auto& [key, win] : windows_) {
    TelemetrySnapshot::Series s;
    s.name = flight_key_name(key);
    s.total_count = win.total_count();
    s.total_sum = win.total_sum();
    s.w10s = win.digest(2, snap.taken_ns);
    s.w1m = win.digest(12, snap.taken_ns);
    s.w5m = win.digest(SlidingWindow::kSubWindows, snap.taken_ns);
    const bool step_series = s.name == "deploy.step.latency";
    const bool req_series = s.name == "request.latency";
    if (step_series || req_series) {
      const auto merged =
          win.digest_buckets(SlidingWindow::kSubWindows, snap.taken_ns);
      s.buckets_5m.assign(merged.begin(), merged.end());
      const auto& ex = step_series ? step_exemplars_ : request_exemplars_;
      s.exemplars.reserve(ex.size());
      for (const TeleExemplar& x : ex) {
        // Exemplars older than the rendered window would point outside
        // the histogram they decorate; publish them as empty instead.
        const bool fresh =
            x.req != 0 && x.t_ns >= snap.taken_ns - kSlowWindowNs;
        s.exemplars.push_back(fresh ? x : TeleExemplar{});
      }
    }
    snap.series.push_back(std::move(s));
  }
  std::sort(snap.series.begin(), snap.series.end(),
            [](const TelemetrySnapshot::Series& a,
               const TelemetrySnapshot::Series& b) { return a.name < b.name; });
  return snap;
}

void TelemetryHub::set_stall_action(std::function<void(double)> action) {
  const std::lock_guard<std::mutex> lock(mu_);
  stall_action_ = std::move(action);
}

bool TelemetryHub::request_detail(std::uint64_t id, RequestRecord* out,
                                  bool* active) {
  const std::lock_guard<std::mutex> lock(mu_);
  read_rings_locked();
  if (active != nullptr) *active = false;
  for (const RequestRecord& r : slow_requests_) {
    if (r.id == id) {
      *out = r;
      return true;
    }
  }
  // Newest first: a re-used FIFO slot should resolve to the latest data.
  for (auto it = recent_requests_.rbegin(); it != recent_requests_.rend();
       ++it) {
    if (it->id == id) {
      *out = *it;
      return true;
    }
  }
  const auto it = active_requests_.find(id);
  if (it != active_requests_.end()) {
    *out = it->second;
    if (active != nullptr) *active = true;
    return true;
  }
  return false;
}

bool TelemetryHub::healthy(double deadline_ms, double* ago_ms) const {
  const std::int64_t last = flight_stats().last_step_ns;
  if (last < 0) {
    if (ago_ms) *ago_ms = -1.0;
    return true;  // idle: no plan step has ever run
  }
  const double age = static_cast<double>(mono_now_ns() - last) / 1e6;
  if (ago_ms) *ago_ms = age;
  return age <= deadline_ms;
}

void TelemetryHub::set_stall_deadline_ms(double ms) {
  stall_deadline_ms_.store(ms, std::memory_order_relaxed);
}

double TelemetryHub::stall_deadline_ms() const {
  return stall_deadline_ms_.load(std::memory_order_relaxed);
}

void TelemetryHub::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  skip_backlog_locked();
  windows_.clear();
  active_requests_.clear();
  recent_requests_.clear();
  slow_requests_.clear();
  step_exemplars_.fill(TeleExemplar{});
  request_exemplars_.fill(TeleExemplar{});
  events_total_ = 0;
  dropped_total_ = 0;
  requests_started_.store(0, std::memory_order_relaxed);
  requests_done_.store(0, std::memory_order_relaxed);
}

// ---- /proc/self process gauges ----

namespace {

#if defined(__linux__)
/// Parses one numeric "Key: value" line out of /proc/self/status.
bool proc_status_field(const char* field, double* out) {
  std::ifstream is("/proc/self/status");
  if (!is.good()) return false;
  std::string line;
  const std::string want = std::string(field) + ":";
  while (std::getline(is, line)) {
    if (line.rfind(want, 0) != 0) continue;
    std::istringstream ls(line.substr(want.size()));
    double v = 0.0;
    if (ls >> v) {
      *out = v;
      return true;
    }
    return false;
  }
  return false;
}

bool proc_cpu_seconds(double* utime_s, double* stime_s) {
  std::ifstream is("/proc/self/stat");
  if (!is.good()) return false;
  std::string stat;
  std::getline(is, stat);
  // comm (field 2) may contain spaces; everything after the closing paren
  // is whitespace-separated, with utime/stime at positions 14/15.
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return false;
  std::istringstream ls(stat.substr(paren + 1));
  std::string tok;
  double utime = 0.0;
  double stime = 0.0;
  for (int field = 3; field <= 15 && (ls >> tok); ++field) {
    if (field == 14) utime = std::atof(tok.c_str());
    if (field == 15) stime = std::atof(tok.c_str());
  }
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  if (hz <= 0.0) return false;
  *utime_s = utime / hz;
  *stime_s = stime / hz;
  return true;
}

bool proc_open_fds(double* out) {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return false;
  double n = 0.0;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') n += 1.0;
  }
  closedir(d);
  *out = n;
  return true;
}
#endif  // __linux__

}  // namespace

void TelemetryHub::sample_proc_gauges() {
  // Registry discipline: reset() disables collection first, so gating on
  // the flag keeps the aggregator from re-registering proc.* gauges
  // against a freshly cleared registry. Non-Linux (or a hidden /proc)
  // degrades to the gauges simply never appearing.
  if (!metrics_enabled()) return;
#if defined(__linux__)
  double v = 0.0;
  if (proc_status_field("VmRSS", &v)) {
    metrics().gauge("proc.rss_bytes").set(v * 1024.0);  // VmRSS is in kB
  }
  if (proc_status_field("Threads", &v)) {
    metrics().gauge("proc.threads").set(v);
  }
  double ut = 0.0;
  double st = 0.0;
  if (proc_cpu_seconds(&ut, &st)) {
    metrics().gauge("proc.utime_s").set(ut);
    metrics().gauge("proc.stime_s").set(st);
  }
  if (proc_open_fds(&v)) {
    metrics().gauge("proc.open_fds").set(v);
  }
#endif
}

}  // namespace t2c::obs
