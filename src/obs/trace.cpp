#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/profile.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/jsonlite.h"

namespace t2c::obs {

namespace {
std::atomic<int> g_next_tid{1};
}  // namespace

int trace_tid() {
  thread_local const int tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void name_current_thread(const std::string& name) {
  TraceRecorder& rec = tracer();
  const int tid = trace_tid();
  const std::lock_guard<std::mutex> lock(rec.mu_);
  for (const auto& [t, n] : rec.thread_names_) {
    if (t == tid) return;  // first name wins
  }
  rec.thread_names_.emplace_back(tid, name);
}

void set_trace_enabled(bool on) {
  set_tier(kTierTrace, on);
  if (on) name_current_thread("main");
}

std::int64_t TraceRecorder::us_at(std::int64_t mono_ns) const {
  return (mono_ns - epoch_ns_.load(std::memory_order_relaxed)) / 1000;
}

void TraceRecorder::record(Event e) {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void TraceRecorder::counter(const Name* key, const char* cat, double value) {
  Event e;
  e.key = key;
  e.cat = cat;
  e.ph = 'C';
  e.ts_us = now_us();
  e.tid = trace_tid();
  e.value = value;
  record(std::move(e));
}

std::size_t TraceRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

TraceRecorder::Event TraceRecorder::event(std::size_t i) const {
  const std::lock_guard<std::mutex> lock(mu_);
  check(i < events_.size(), "TraceRecorder::event: index out of range");
  Event e = events_[i];
  if (e.key != nullptr) e.name = e.key->str;
  return e;
}

std::string TraceRecorder::to_json() const {
  using jsonlite::json_escape;
  using jsonlite::json_num;
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  // Extra top-level keys are legal in the Chrome/Perfetto JSON format;
  // viewers ignore build_info, tooling can attribute the trace.
  os << "{\"build_info\":" << build_info_json() << ",\"traceEvents\":[";
  // Metadata first: the process, every named thread track, then fallback
  // names for tids that recorded events without registering a name.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"t2c\"}}";
  std::set<int> named;
  std::vector<std::pair<int, std::string>> names = thread_names_;
  std::sort(names.begin(), names.end());
  for (const auto& [tid, name] : names) {
    if (!named.insert(tid).second) continue;
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  for (const Event& e : events_) {
    if (named.insert(e.tid).second) {
      os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
         << e.tid << ",\"args\":{\"name\":\"thread." << e.tid << "\"}}";
    }
  }
  // Emit in start-time order: spans are recorded at their *end*, so the
  // raw log interleaves; sorting gives viewers (and the t2c_json_check
  // validator) a monotonically non-decreasing ts stream.
  std::vector<const Event*> ordered;
  ordered.reserve(events_.size());
  for (const Event& e : events_) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Event* a, const Event* b) {
                     return a->ts_us < b->ts_us;
                   });
  for (const Event* ep : ordered) {
    const Event& e = *ep;
    os << ",{\"name\":\""
       << json_escape(e.key != nullptr ? e.key->str : e.name)
       << "\",\"cat\":\"" << json_escape(e.cat) << "\",\"ph\":\"" << e.ph
       << "\",\"ts\":" << e.ts_us;
    if (e.ph == 'X') os << ",\"dur\":" << e.dur_us;
    os << ",\"pid\":1,\"tid\":" << e.tid;
    if (e.ph == 'C') {
      os << ",\"args\":{\"value\":" << json_num(e.value) << '}';
    } else if (e.ph == 'X' && e.req != 0) {
      // Request attribution: spans recorded inside a RequestScope carry
      // the id so tail latency in the trace joins against /metrics.
      os << ",\"args\":{\"req\":" << e.req << '}';
    }
    os << '}';
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

void TraceRecorder::write_json(const std::string& path) const {
  std::ofstream os(path);
  check(os.good(), "trace: cannot open for writing: " + path);
  os << to_json() << '\n';
}

void TraceRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  epoch_ns_.store(mono_now_ns(), std::memory_order_relaxed);
}

TraceRecorder& tracer() {
  static TraceRecorder* rec = new TraceRecorder();
  return *rec;
}

TraceSpan::TraceSpan(std::string name, const char* cat)
    : name_(std::move(name)), cat_(cat) {
  if (trace_enabled()) start_us_ = tracer().now_us();
}

TraceSpan::~TraceSpan() {
  if (start_us_ < 0) return;
  const std::int64_t end = tracer().now_us();
  TraceRecorder::Event e;
  e.name = std::move(name_);
  e.cat = cat_;
  e.ts_us = start_us_;
  e.dur_us = end - start_us_;
  e.tid = trace_tid();
  tracer().record(std::move(e));
}

}  // namespace t2c::obs
