#include "obs/pmu.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "obs/log.h"
#include "util/check.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace t2c::obs {

namespace {

std::atomic<PmuMode> g_mode{PmuMode::kOff};
std::atomic<PmuTier> g_tier{PmuTier::kDisabled};
/// Bumped by set_pmu_mode(); thread-local groups re-open when it moves.
std::atomic<std::uint64_t> g_generation{0};

/// Raw event configs from T2C_PMU_RAW, parsed once (first set_pmu_mode).
std::uint64_t g_raw_configs[kMaxRawEvents] = {0, 0, 0, 0};
int g_num_raw = -1;  ///< -1 = not parsed yet

void parse_raw_events() {
  if (g_num_raw >= 0) return;
  g_num_raw = 0;
  const char* env = std::getenv("T2C_PMU_RAW");
  if (env == nullptr) return;
  std::string spec(env);
  std::size_t pos = 0;
  while (pos < spec.size() && g_num_raw < kMaxRawEvents) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    if (tok[0] == 'r' || tok[0] == 'R') tok.erase(0, 1);
    char* end = nullptr;
    const std::uint64_t cfg = std::strtoull(tok.c_str(), &end, 16);
    if (end == nullptr || *end != '\0' || tok.empty()) {
      log_warn("pmu: ignoring malformed T2C_PMU_RAW token '", tok, "'");
      continue;
    }
    g_raw_configs[g_num_raw++] = cfg;
  }
}

std::int64_t thread_cpu_ns() {
#if defined(__linux__)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
#else
  return 0;
#endif
}

#if defined(__linux__)

long perf_open(perf_event_attr* attr, int group_fd) {
  return syscall(SYS_perf_event_open, attr, /*pid=*/0, /*cpu=*/-1, group_fd,
                 /*flags=*/0UL);
}

/// (type, config) of the five named events, in PmuCounts field order.
constexpr std::uint32_t kEventType[5] = {
    PERF_TYPE_HARDWARE, PERF_TYPE_HARDWARE, PERF_TYPE_HARDWARE,
    PERF_TYPE_HARDWARE, PERF_TYPE_HARDWARE};
constexpr std::uint64_t kEventConfig[5] = {
    PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_REFERENCES, PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_BRANCH_MISSES};

#endif  // __linux__

/// Probe: can this process open a hardware cycles counter on the calling
/// thread right now?
bool probe_hardware() {
#if defined(__linux__)
  PerfCounterGroup g;
  g.open(PmuTier::kHardware);
  const bool ok = g.hw();
  g.close();
  return ok;
#else
  return false;
#endif
}

/// A sample's counter fields, in perf group order (the five named events,
/// then the raw ones; PerfCounterGroup::open's event index) and cpu_ns.
template <typename Sample>
auto fields(Sample& s) {
  static_assert(kMaxRawEvents == 4, "fields() lists every raw event");
  return std::array<decltype(&s.cycles), kPmuFields>{
      &s.cycles, &s.instructions, &s.cache_refs, &s.cache_misses,
      &s.branch_misses, &s.raw[0], &s.raw[1], &s.raw[2], &s.raw[3],
      &s.cpu_ns};
}

}  // namespace

void PmuSample::accumulate(const PmuSample& other) {
  const auto a = fields(*this);
  const auto b = fields(other);
  for (int i = 0; i < kPmuFields; ++i) *a[i] += *b[i];
  hw = hw || other.hw;
}

PmuSample pmu_delta(const PmuCounts& begin, const PmuCounts& end) {
  PmuSample s;
  const auto d = fields(s);
  const auto b = fields(begin);
  const auto e = fields(end);
  for (int i = 0; i < kPmuFields; ++i) {
    *d[i] = std::max<std::int64_t>(0, *e[i] - *b[i]);
  }
  s.hw = begin.hw && end.hw;
  return s;
}

PerfCounterGroup::~PerfCounterGroup() { close(); }

void PerfCounterGroup::close() {
#if defined(__linux__)
  for (int i = 0; i < n_open_; ++i) {
    if (fds_[i] >= 0) ::close(fds_[i]);
    fds_[i] = -1;
  }
#endif
  n_open_ = 0;
}

void PerfCounterGroup::open(PmuTier tier) {
  close();
  if (tier != PmuTier::kHardware) return;
#if defined(__linux__)
  parse_raw_events();
  const int total = 5 + g_num_raw;
  for (int ev = 0; ev < total; ++ev) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    if (ev < 5) {
      attr.type = kEventType[ev];
      attr.config = kEventConfig[ev];
    } else {
      attr.type = PERF_TYPE_RAW;
      attr.config = g_raw_configs[ev - 5];
    }
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    // Leader starts enabled; members inherit the leader's on/off state.
    const int group_fd = n_open_ == 0 ? -1 : fds_[0];
    const long fd = perf_open(&attr, group_fd);
    if (fd < 0) {
      // The leader (cycles) failing means no hardware tier on this
      // thread; a member failing (exotic event on a limited PMU) just
      // drops that column.
      if (ev == 0) {
        close();
        return;
      }
      continue;
    }
    fds_[n_open_] = static_cast<int>(fd);
    field_of_[n_open_] = ev;
    ++n_open_;
  }
#endif
}

void PerfCounterGroup::read(PmuCounts& out) const {
  out = PmuCounts{};
  out.cpu_ns = thread_cpu_ns();
#if defined(__linux__)
  if (n_open_ == 0) return;
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, values[nr].
  std::uint64_t buf[3 + 5 + kMaxRawEvents];
  const ssize_t want = static_cast<ssize_t>((3 + n_open_) * sizeof(buf[0]));
  if (::read(fds_[0], buf, sizeof(buf)) < want) return;
  const std::uint64_t enabled = buf[1];
  const std::uint64_t running = buf[2];
  // Multiplex scaling: when the PMU had to timeshare the group, scale the
  // counts up by enabled/running (the standard perf estimate).
  const double scale =
      (running > 0 && running < enabled)
          ? static_cast<double>(enabled) / static_cast<double>(running)
          : 1.0;
  const auto f = fields(out);
  for (int i = 0; i < n_open_; ++i) {
    *f[field_of_[i]] = static_cast<std::int64_t>(
        static_cast<double>(buf[3 + i]) * scale);
  }
  out.hw = true;
#endif
}

void set_pmu_mode(PmuMode mode) {
  parse_raw_events();
  PmuTier tier = PmuTier::kDisabled;
  switch (mode) {
    case PmuMode::kOff:
      tier = PmuTier::kDisabled;
      break;
    case PmuMode::kCpuTime:
      tier = PmuTier::kCpuTime;
      break;
    case PmuMode::kAuto:
    case PmuMode::kHardware:
      if (probe_hardware()) {
        tier = PmuTier::kHardware;
      } else {
        tier = PmuTier::kCpuTime;
        if (mode == PmuMode::kHardware) {
          log_warn("pmu: perf_event_open unavailable (perf_event_paranoid, ",
                   "seccomp, or no PMU); falling back to tier ",
                   pmu_tier_name(tier));
        }
      }
      break;
  }
  g_mode.store(mode, std::memory_order_relaxed);
  g_tier.store(tier, std::memory_order_relaxed);
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  set_tier(kTierPmu, tier != PmuTier::kDisabled);
}

PmuMode pmu_mode() { return g_mode.load(std::memory_order_relaxed); }

PmuTier pmu_tier() { return g_tier.load(std::memory_order_relaxed); }

const char* pmu_tier_name(PmuTier tier) {
  switch (tier) {
    case PmuTier::kHardware: return "hardware";
    case PmuTier::kCpuTime: return "cputime";
    case PmuTier::kDisabled: return "disabled";
  }
  return "disabled";
}

PmuMode parse_pmu_mode(const char* text) {
  const std::string s(text == nullptr ? "" : text);
  if (s == "off") return PmuMode::kOff;
  if (s == "auto") return PmuMode::kAuto;
  if (s == "cputime") return PmuMode::kCpuTime;
  if (s == "hw" || s == "hardware") return PmuMode::kHardware;
  fail("unknown PMU mode '" + s + "' (off|auto|cputime|hw)");
}

int pmu_num_raw_events() {
  parse_raw_events();
  return g_num_raw;
}

std::uint64_t pmu_raw_event_config(int i) {
  check(i >= 0 && i < pmu_num_raw_events(), "pmu_raw_event_config: bad index");
  return g_raw_configs[i];
}

PerfCounterGroup& thread_pmu() {
  struct Holder {
    PerfCounterGroup group;
    std::uint64_t generation = ~std::uint64_t{0};
  };
  thread_local Holder h;
  const std::uint64_t cur = g_generation.load(std::memory_order_acquire);
  if (h.generation != cur) {
    h.group.open(pmu_tier());
    h.generation = cur;
  }
  return h.group;
}

void PmuAccumulator::add(const PmuSample& s) {
  const auto f = fields(s);
  for (int i = 0; i < kPmuFields; ++i) {
    sums_[i].fetch_add(*f[i], std::memory_order_relaxed);
  }
  if (s.hw) hw_.store(true, std::memory_order_relaxed);
}

void PmuAccumulator::snapshot(PmuCounts& out) const {
  const auto f = fields(out);
  for (int i = 0; i < kPmuFields; ++i) {
    *f[i] = sums_[i].load(std::memory_order_relaxed);
  }
  out.hw = hw_.load(std::memory_order_relaxed);
}

void PmuAccumulator::reset() {
  for (auto& s : sums_) s.store(0, std::memory_order_relaxed);
  hw_.store(false, std::memory_order_relaxed);
}

PmuAccumulator& pmu_worker_acc() {
  static PmuAccumulator* acc = new PmuAccumulator();
  return *acc;
}

}  // namespace t2c::obs
