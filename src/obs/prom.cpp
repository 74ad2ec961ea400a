#include "obs/prom.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/jsonlite.h"

namespace t2c::obs {

namespace {

using jsonlite::json_num;

/// One exposition family: every sample line shares the name and TYPE.
struct Family {
  std::string type;  ///< "counter" | "gauge" | "histogram"
  std::string help;
  std::vector<std::string> samples;
};

/// Splits a registry name into (metric, op label). Names follow the
/// `<stage>.<metric>[.<kind>][:<layer label>]` convention: everything
/// from the kind segment onward becomes the `op` label, so one family
/// (e.g. t2c_deploy_op_ms) carries every per-layer series as labels
/// instead of exploding into per-layer metric names.
void split_name(const std::string& name, std::string* metric,
                std::string* label) {
  const std::size_t colon = name.find(':');
  if (colon == std::string::npos) {
    *metric = name;
    label->clear();
    return;
  }
  const std::size_t dot = name.rfind('.', colon);
  if (dot == std::string::npos) {
    *metric = name.substr(0, colon);
    *label = name.substr(colon + 1);
    return;
  }
  *metric = name.substr(0, dot);
  *label = name.substr(dot + 1);
}

std::string label_block(const std::vector<std::pair<std::string,
                                                    std::string>>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + prom_escape_label(v) + "\"";
  }
  out += '}';
  return out;
}

void add_window_gauges(std::map<std::string, Family>& fams,
                       const std::string& series, const char* window,
                       const WindowStats& w) {
  const std::string lb =
      label_block({{"series", series}, {"window", window}});
  const auto put = [&](const std::string& fam, const char* help, double v) {
    Family& f = fams[fam];
    f.type = "gauge";
    f.help = help;
    f.samples.push_back(fam + lb + " " + json_num(v));
  };
  put("t2c_tele_p50_ms", "Sliding-window p50 latency (ms).", w.p50);
  put("t2c_tele_p95_ms", "Sliding-window p95 latency (ms).", w.p95);
  put("t2c_tele_p99_ms", "Sliding-window p99 latency (ms).", w.p99);
  put("t2c_tele_rate_per_s", "Sliding-window event rate (1/s).",
      w.rate_per_s);
  put("t2c_tele_count", "Events inside the sliding window.",
      static_cast<double>(w.count));
}

/// Emits the `t2c_tele_latency_ms` histogram family for one exposition
/// series: exact cumulative `le` buckets from the 5 m sliding window,
/// decorated with OpenMetrics exemplars (`# {req="<id>"} <value>`) where
/// a request-attributed observation landed in the bucket. Zero-delta
/// buckets are skipped (cumulative lines stay correct); +Inf always
/// closes the family so count arithmetic holds for any scraper.
void add_latency_histogram(std::map<std::string, Family>& fams,
                           const TelemetrySnapshot::Series& s) {
  if (s.buckets_5m.empty() || s.w5m.count <= 0) return;
  const std::string fam = "t2c_tele_latency_ms";
  Family& f = fams[fam];
  f.type = "histogram";
  f.help =
      "5m-window latency histogram (ms) with request-id exemplars on "
      "buckets.";
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < s.buckets_5m.size(); ++i) {
    const std::uint64_t delta = s.buckets_5m[i];
    cum += delta;
    if (delta == 0) continue;
    std::string line =
        fam + "_bucket" +
        label_block({{"series", s.name},
                     {"le", json_num(SlidingWindow::bucket_hi(
                                static_cast<int>(i)))}}) +
        " " + std::to_string(cum);
    if (i < s.exemplars.size() && s.exemplars[i].req != 0) {
      line += " # {req=\"" + std::to_string(s.exemplars[i].req) + "\"} " +
              json_num(s.exemplars[i].value_ms);
    }
    f.samples.push_back(std::move(line));
  }
  f.samples.push_back(
      fam + "_bucket" +
      label_block({{"series", s.name}, {"le", "+Inf"}}) + " " +
      std::to_string(static_cast<std::uint64_t>(s.w5m.count)));
  f.samples.push_back(fam + "_sum" + label_block({{"series", s.name}}) +
                      " " + json_num(s.w5m.sum));
  f.samples.push_back(fam + "_count" + label_block({{"series", s.name}}) +
                      " " + std::to_string(s.w5m.count));
}

std::string help_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

}  // namespace

std::string prom_escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string prom_metric_name(const std::string& name) {
  std::string out = "t2c_";
  out.reserve(name.size() + 4);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string render_prometheus() {
  // Family map keyed by the emitted metric name: sorted output, one
  // HELP/TYPE pair per family, every label series under it.
  std::map<std::string, Family> fams;

  const MetricsSnapshot snap = metrics().snapshot();
  for (const auto& [name, v] : snap.counters) {
    std::string metric;
    std::string label;
    split_name(name, &metric, &label);
    const std::string fam = prom_metric_name(metric) + "_total";
    Family& f = fams[fam];
    f.type = "counter";
    if (f.help.empty()) f.help = "t2c counter " + help_escape(metric) + ".";
    const std::string lb =
        label.empty() ? "" : label_block({{"op", label}});
    f.samples.push_back(fam + lb + " " + std::to_string(v));
  }
  for (const auto& [name, v] : snap.gauges) {
    std::string metric;
    std::string label;
    split_name(name, &metric, &label);
    const std::string fam = prom_metric_name(metric);
    Family& f = fams[fam];
    f.type = "gauge";
    if (f.help.empty()) f.help = "t2c gauge " + help_escape(metric) + ".";
    const std::string lb =
        label.empty() ? "" : label_block({{"op", label}});
    f.samples.push_back(fam + lb + " " + json_num(v));
  }
  for (const auto& [name, h] : snap.histograms) {
    std::string metric;
    std::string label;
    split_name(name, &metric, &label);
    const std::string fam = prom_metric_name(metric);
    Family& f = fams[fam];
    f.type = "histogram";
    if (f.help.empty()) {
      f.help = "t2c histogram " + help_escape(metric) + " (ms).";
    }
    std::vector<std::pair<std::string, std::string>> labels;
    if (!label.empty()) labels.emplace_back("op", label);
    // Exact cumulative bucket lines from the per-bucket counts — not
    // reconstructed from quantiles (HistogramStats::cumulative_counts).
    const std::vector<std::int64_t> cum = h.cumulative_counts();
    for (std::size_t i = 0; i < cum.size(); ++i) {
      auto ls = labels;
      ls.emplace_back("le", i < h.bounds.size() ? json_num(h.bounds[i])
                                                : std::string("+Inf"));
      f.samples.push_back(fam + "_bucket" + label_block(ls) + " " +
                          std::to_string(cum[i]));
    }
    f.samples.push_back(fam + "_sum" + label_block(labels) + " " +
                        json_num(h.sum));
    f.samples.push_back(fam + "_count" + label_block(labels) + " " +
                        std::to_string(h.count));
  }

  // The live plane: windowed percentiles/rates plus plane counters.
  const TelemetrySnapshot tele = telemetry().snapshot();
  for (const auto& s : tele.series) {
    add_window_gauges(fams, s.name, "10s", s.w10s);
    add_window_gauges(fams, s.name, "1m", s.w1m);
    add_window_gauges(fams, s.name, "5m", s.w5m);
    add_latency_histogram(fams, s);
    Family& tot = fams["t2c_tele_series_total"];
    tot.type = "counter";
    tot.help = "Total events per telemetry series since start.";
    tot.samples.push_back("t2c_tele_series_total" +
                          label_block({{"series", s.name}}) + " " +
                          std::to_string(s.total_count));
  }
  const auto scalar = [&](const std::string& fam, const char* type,
                          const char* help, double v) {
    Family& f = fams[fam];
    f.type = type;
    f.help = help;
    f.samples.push_back(fam + " " + json_num(v));
  };
  scalar("t2c_tele_events_total", "counter",
         "Ring events the telemetry hub read.",
         static_cast<double>(tele.events_total));
  scalar("t2c_tele_dropped_total", "counter",
         "Ring events overwritten before the telemetry hub read them.",
         static_cast<double>(tele.dropped_total));
  scalar("t2c_requests_started_total", "counter",
         "RequestScope contexts opened.",
         static_cast<double>(tele.requests_started));
  scalar("t2c_requests_done_total", "counter",
         "RequestScope contexts completed.",
         static_cast<double>(tele.requests_done));
  scalar("t2c_requests_active", "gauge", "Requests currently in flight.",
         static_cast<double>(tele.requests_started - tele.requests_done));
  double age_ms = -1.0;
  const bool ok = telemetry().healthy(telemetry().stall_deadline_ms(),
                                      &age_ms);
  scalar("t2c_healthy", "gauge",
         "1 while the stall watchdog is satisfied, 0 when stalled.",
         ok ? 1.0 : 0.0);
  if (age_ms >= 0.0) {
    scalar("t2c_last_step_age_seconds", "gauge",
           "Seconds since the last completed plan step.", age_ms / 1e3);
  }

  std::ostringstream os;
  for (const auto& [name, f] : fams) {
    os << "# HELP " << name << " " << f.help << "\n";
    os << "# TYPE " << name << " " << f.type << "\n";
    for (const std::string& s : f.samples) os << s << "\n";
  }
  return os.str();
}

// ---- the HTTP/1.0 scrape server ----

namespace {

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer went away; a scrape retry will come
    off += static_cast<std::size_t>(n);
  }
}

void send_response(int fd, int code, const char* status,
                   const std::string& content_type,
                   const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.0 " << code << " " << status << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  send_all(fd, os.str());
}

/// First line of the request: "GET <path> HTTP/1.x". Anything else (or a
/// read error) yields an empty path -> 400.
std::string request_path(int fd) {
  char buf[2048];
  const ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return "";
  buf[n] = '\0';
  const char* sp1 = std::strchr(buf, ' ');
  if (sp1 == nullptr || std::strncmp(buf, "GET ", 4) != 0) return "";
  const char* sp2 = std::strchr(sp1 + 1, ' ');
  if (sp2 == nullptr) return "";
  return std::string(sp1 + 1, sp2);
}

std::string render_requests_text() {
  const TelemetrySnapshot tele = telemetry().snapshot();
  std::ostringstream os;
  os << "recent requests (" << tele.recent_requests.size() << " of "
     << tele.requests_done << " completed, "
     << (tele.requests_started - tele.requests_done) << " active):\n";
  for (const RequestRecord& r : tele.recent_requests) {
    os << "  req " << r.id << "  latency_ms " << json_num(r.latency_ms)
       << "  steps " << r.steps << "  saturated " << r.saturated << "\n";
  }
  return os.str();
}

constexpr const char* kTextPlain = "text/plain; charset=utf-8";
constexpr const char* kPromText =
    "text/plain; version=0.0.4; charset=utf-8";

void append_request_json(std::ostringstream& os, const RequestRecord& r,
                         std::int64_t now_ns, bool active) {
  using jsonlite::json_escape;
  os << "{\"id\":" << r.id << ",\"latency_ms\":" << json_num(r.latency_ms)
     << ",\"steps\":" << r.steps << ",\"saturated\":" << r.saturated
     << ",\"active\":" << (active ? "true" : "false");
  if (r.done_ns > 0) {
    os << ",\"age_ms\":"
       << json_num(static_cast<double>(now_ns - r.done_ns) / 1e6);
  }
  os << ",\"trail\":[";
  bool first = true;
  const std::int64_t t0 = r.trail.empty() ? 0 : r.trail.front().t_ns;
  for (const TrailStep& st : r.trail) {
    if (!first) os << ',';
    first = false;
    os << "{\"op\":\"" << json_escape(flight_key_name(st.key))
       << "\",\"at_ms\":"
       << json_num(static_cast<double>(st.t_ns - t0) / 1e6)
       << ",\"ms\":" << json_num(st.ms) << "}";
  }
  os << "]}";
}

}  // namespace

std::string render_exemplars_json() {
  const TelemetrySnapshot tele = telemetry().snapshot();
  std::ostringstream os;
  os << "{\"schema\":\"t2c.exemplars.v1\",\"window_ms\":300000"
     << ",\"taken_ns\":" << tele.taken_ns << ",\"requests\":[";
  bool first = true;
  for (const RequestRecord& r : tele.slow_requests) {
    if (!first) os << ',';
    first = false;
    append_request_json(os, r, tele.taken_ns, false);
  }
  os << "]}\n";
  return os.str();
}

std::string render_request_json(std::uint64_t id) {
  RequestRecord rec;
  bool active = false;
  if (!telemetry().request_detail(id, &rec, &active)) return "";
  std::ostringstream os;
  append_request_json(os, rec, mono_now_ns(), active);
  os << "\n";
  return os.str();
}

PromExporter::~PromExporter() { stop(); }

bool PromExporter::start(int port) {
  if (running_.load(std::memory_order_relaxed)) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    log_warn("prom: socket() failed");
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 16) < 0) {
    log_warn("prom: cannot bind/listen on port ", port);
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    port_ = port;
  }
  listen_fd_ = fd;
  running_.store(true, std::memory_order_relaxed);
  server_ = std::thread([this] { serve_main(); });
  log_info("prom: serving /metrics on 127.0.0.1:", port_);
  return true;
}

void PromExporter::stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  // Unblock accept(): shutdown makes the blocked call return with an
  // error, and the loop observes running_ == false.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (server_.joinable()) server_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void PromExporter::serve_main() {
  name_current_thread("obs.exporter");
  while (running_.load(std::memory_order_relaxed)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (!running_.load(std::memory_order_relaxed)) break;
      continue;  // transient accept failure
    }
    const std::string path = request_path(client);
    if (path == "/metrics" || path == "/") {
      send_response(client, 200, "OK", kPromText, render_prometheus());
    } else if (path == "/healthz") {
      double age_ms = -1.0;
      const bool ok =
          telemetry().healthy(telemetry().stall_deadline_ms(), &age_ms);
      std::ostringstream os;
      if (ok) {
        os << (age_ms < 0.0 ? "ok (idle)\n" : "ok\n");
        send_response(client, 200, "OK", kTextPlain, os.str());
      } else {
        // Triage in one body: how stale, what deadline, which step last
        // completed before the wedge, and whether the black box lost
        // history (overwrites/lost threads) on the way here.
        const FlightStats st = flight_stats();
        os << "stall: last plan step completed " << json_num(age_ms)
           << " ms ago (deadline " << json_num(telemetry().stall_deadline_ms())
           << " ms)\n"
           << "last step: " << flight_key_name(st.last_step_key) << "\n"
           << "flight dropped: " << st.dropped() << "\n";
        send_response(client, 503, "Service Unavailable", kTextPlain,
                      os.str());
      }
    } else if (path == "/buildinfo") {
      send_response(client, 200, "OK", "application/json",
                    build_info_json() + "\n");
    } else if (path == "/requests") {
      send_response(client, 200, "OK", kTextPlain, render_requests_text());
    } else if (path.rfind("/requests/", 0) == 0) {
      const std::string idstr = path.substr(10);
      char* endp = nullptr;
      const std::uint64_t id = std::strtoull(idstr.c_str(), &endp, 10);
      std::string body;
      if (!idstr.empty() && endp != nullptr && *endp == '\0') {
        body = render_request_json(id);
      }
      if (body.empty()) {
        send_response(client, 404, "Not Found", kTextPlain,
                      "unknown request id\n");
      } else {
        send_response(client, 200, "OK", "application/json", body);
      }
    } else if (path == "/exemplars") {
      send_response(client, 200, "OK", "application/json",
                    render_exemplars_json());
    } else if (path.empty()) {
      send_response(client, 400, "Bad Request", kTextPlain,
                    "bad request\n");
    } else {
      send_response(client, 404, "Not Found", kTextPlain,
                    "unknown path; try /metrics /healthz /buildinfo "
                    "/requests /requests/<id> /exemplars\n");
    }
    ::close(client);
  }
}

}  // namespace t2c::obs
