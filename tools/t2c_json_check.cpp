// t2c_json_check — validates the JSON artifacts t2c_cli emits, used by the
// `t2c_profile_valid` ctest entry.
//
//   t2c_json_check --trace trace.json --profile profile.json
//                  [--metrics metrics.json] [--bench BENCH_runtime.json]
//
// Trace checks: the document parses, every event is one of the phases this
// repo emits (M/X/C), "X" durations are non-negative, timestamps are
// monotonically non-decreasing, every tid carrying events has a
// thread_name metadata record, at least two distinct named tracks exist
// (main + a pool worker) and at least one counter track is present.
// Profile checks: the document parses, the build_info/pmu_tier stamps are
// present, every row carries the call/FLOP/byte fields with sane
// (non-negative) values, and any pmu block is internally consistent.
// Bench checks (t2c.bench.v1): every bench carries build_info + rows, row
// names are unique per bench, reps >= 5, any optional "kernel" code-path
// tag is a [a-z0-9_]+ identifier, any optional "threads" pool size is
// >= 1, and the min/mean/p50/p95/stddev fields are present with
// min <= mean.
// Prometheus checks (--prom FILE): text exposition format 0.0.4 — every
// sample's family has HELP and TYPE lines that precede it, TYPE is one of
// counter/gauge/histogram, metric and label names match the spec grammar,
// label values are quoted with only \\ \" \n escapes, histogram _bucket
// series are cumulative (non-decreasing in `le` order) and end in a +Inf
// bucket equal to the family's _count, and the document ends in a newline.
// Histogram _bucket samples may carry OpenMetrics exemplars
// (`# {labels} value`); the exemplar value must sit inside its bucket.
// --prom-scrape PORT fetches http://127.0.0.1:PORT/metrics over a raw
// socket (no curl dependency), requires a 200, validates the body the same
// way, and writes it to $T2C_PROM_DUMP when that variable names a file.
// Postmortem checks (--postmortem FILE, schema t2c.postmortem.v1): the
// crash-handler bundle — reason (signal/stall with detail fields),
// build_info, lock-free vitals, >= 1 complete flight event in time order,
// a non-empty hex backtrace, and the truncation marker.
// --fetch PORT:/PATH performs a generic exporter GET (e.g. /exemplars,
// /requests/<id>) and prints the body, for the shell gates.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/check.h"
#include "util/jsonlite.h"

namespace {

using t2c::check;
using t2c::jsonlite::JsonValue;
using t2c::jsonlite::parse_json;

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  check(is.good(), "cannot open " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void check_build_info(const JsonValue& doc, const std::string& path) {
  check(doc.has("build_info") && doc.at("build_info").is_object(),
        path + ": missing build_info block");
  const JsonValue& b = doc.at("build_info");
  for (const char* key : {"git_sha", "compiler", "flags", "isa", "cpu_model"}) {
    check(b.has(key) && b.at(key).is_string(),
          path + ": build_info missing " + key);
  }
  check(b.has("threads") && b.at("threads").is_number() &&
            b.at("threads").number >= 1.0,
        path + ": build_info.threads must be >= 1");
}

void check_trace(const std::string& path) {
  const JsonValue doc = parse_json(slurp(path));
  check(doc.is_object() && doc.has("traceEvents"),
        path + ": no traceEvents array");
  const JsonValue& events = doc.at("traceEvents");
  check(events.is_array() && !events.array.empty(),
        path + ": traceEvents empty");
  std::set<double> named_tids;
  std::set<double> event_tids;
  std::set<std::string> track_names;
  std::set<std::string> counter_names;
  double last_ts = -1.0;
  std::size_t spans = 0;
  for (const JsonValue& e : events.array) {
    check(e.is_object() && e.has("ph") && e.has("name"),
          path + ": event missing ph/name");
    const std::string& ph = e.at("ph").str;
    check(ph == "M" || ph == "X" || ph == "C",
          path + ": unexpected event phase '" + ph + "'");
    if (ph == "M") {
      if (e.at("name").str == "thread_name") {
        named_tids.insert(e.at("tid").number);
        track_names.insert(e.at("args").at("name").str);
      }
      continue;
    }
    check(e.has("ts") && e.at("ts").number >= 0.0, path + ": bad ts");
    check(e.at("ts").number >= last_ts, path + ": ts not monotonic");
    last_ts = e.at("ts").number;
    event_tids.insert(e.at("tid").number);
    if (ph == "X") {
      ++spans;
      check(e.has("dur") && e.at("dur").number >= 0.0,
            path + ": negative span duration");
    } else {
      counter_names.insert(e.at("name").str);
      check(e.at("args").has("value"), path + ": counter without value");
    }
  }
  check(spans > 0, path + ": no complete (X) events");
  check(!counter_names.empty(), path + ": no counter (C) track");
  for (const double tid : event_tids) {
    check(named_tids.count(tid) == 1,
          path + ": events on an unnamed tid");
  }
  check(track_names.size() >= 2,
        path + ": expected at least two named thread tracks");
  std::printf("trace ok: %zu events, %zu named tracks, %zu counter tracks\n",
              events.array.size(), track_names.size(), counter_names.size());
}

void check_profile(const std::string& path) {
  const JsonValue doc = parse_json(slurp(path));
  check_build_info(doc, path);
  check(doc.has("pmu_tier") && doc.at("pmu_tier").is_string(),
        path + ": missing pmu_tier");
  const std::string& tier = doc.at("pmu_tier").str;
  check(tier == "disabled" || tier == "cputime" || tier == "hardware",
        path + ": unknown pmu_tier '" + tier + "'");
  for (const char* key :
       {"total_ms", "total_flops", "total_macs", "total_bytes"}) {
    check(doc.has(key) && doc.at(key).is_number(),
          path + ": missing " + key);
  }
  check(doc.has("ops") && doc.at("ops").is_array() &&
            !doc.at("ops").array.empty(),
        path + ": no ops rows");
  std::size_t pmu_rows = 0;
  for (const JsonValue& row : doc.at("ops").array) {
    check(row.has("op") && row.at("op").is_string(), path + ": row w/o op");
    for (const char* key : {"calls", "total_ms", "p50_ms", "p95_ms", "p99_ms",
                            "time_pct", "flops", "macs", "bytes_read",
                            "bytes_written", "intensity", "gflops", "gbps"}) {
      check(row.has(key) && row.at(key).is_number() &&
                row.at(key).number >= 0.0,
            path + ": row '" + row.at("op").str + "' bad field " + key);
    }
    check(row.at("calls").number > 0, path + ": zero-call row");
    if (row.has("pmu")) {
      // Measured-counter block: only present at an enabled tier; the
      // hardware-only fields (cycles, ipc, ...) ride along as a unit.
      check(tier != "disabled",
            path + ": pmu block in a disabled-tier profile");
      const JsonValue& p = row.at("pmu");
      check(p.has("steps") && p.at("steps").number > 0,
            path + ": pmu block without steps");
      check(p.has("cpu_ms") && p.at("cpu_ms").number >= 0.0,
            path + ": pmu block without cpu_ms");
      if (p.has("cycles")) {
        for (const char* key : {"instructions", "cache_refs", "cache_misses",
                                "branch_misses", "ipc", "cache_miss_rate",
                                "measured_bytes"}) {
          check(p.has(key) && p.at(key).number >= 0.0,
                path + ": pmu block missing " + key);
        }
      }
      ++pmu_rows;
    }
  }
  std::printf("profile ok: %zu op rows (%zu with pmu, tier %s)\n",
              doc.at("ops").array.size(), pmu_rows, tier.c_str());
}

void check_bench(const std::string& path) {
  const JsonValue doc = parse_json(slurp(path));
  check(doc.has("schema") && doc.at("schema").str == "t2c.bench.v1",
        path + ": schema is not t2c.bench.v1");
  check(doc.has("benches") && doc.at("benches").is_object() &&
            !doc.at("benches").object.empty(),
        path + ": no benches");
  std::size_t rows = 0;
  for (const auto& [bench, value] : doc.at("benches").object) {
    check(value.is_object() && value.has("rows"),
          path + ": bench '" + bench + "' lacks the build_info+rows form");
    check_build_info(value, path + ": " + bench);
    check(value.at("rows").is_array() && !value.at("rows").array.empty(),
          path + ": bench '" + bench + "' has no rows");
    std::set<std::string> names;
    for (const JsonValue& row : value.at("rows").array) {
      check(row.has("name") && row.at("name").is_string(),
            path + ": " + bench + " row without name");
      const std::string& name = row.at("name").str;
      check(names.insert(name).second,
            path + ": " + bench + " duplicate row name '" + name + "'");
      check(row.has("reps") && row.at("reps").number >= 5.0,
            path + ": " + bench + "/" + name + " needs reps >= 5");
      for (const char* key :
           {"min_ms", "mean_ms", "p50_ms", "p95_ms", "stddev_ms"}) {
        check(row.has(key) && row.at(key).is_number() &&
                  row.at(key).number >= 0.0,
              path + ": " + bench + "/" + name + " bad field " + key);
      }
      check(row.at("min_ms").number <= row.at("mean_ms").number + 1e-9,
            path + ": " + bench + "/" + name + " min_ms > mean_ms");
      if (row.has("threads")) {
        check(row.at("threads").is_number() &&
                  row.at("threads").number >= 1.0,
              path + ": " + bench + "/" + name + " threads must be >= 1");
      }
      if (row.has("kernel")) {
        // Optional code-path tag (t2c_perf_diff keys kernel switches off
        // it): must be a non-empty [a-z0-9_]+ identifier.
        check(row.at("kernel").is_string() && !row.at("kernel").str.empty(),
              path + ": " + bench + "/" + name + " kernel must be a "
              "non-empty string");
        for (const char c : row.at("kernel").str) {
          check((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_',
                path + ": " + bench + "/" + name + " kernel has invalid "
                "character '" + std::string(1, c) + "'");
        }
      }
      ++rows;
    }
  }
  std::printf("bench ok: %zu benches, %zu rows\n",
              doc.at("benches").object.size(), rows);
}

void check_metrics(const std::string& path) {
  const JsonValue doc = parse_json(slurp(path));
  check_build_info(doc, path);
  check(doc.has("counters") && doc.has("gauges") && doc.has("histograms"),
        path + ": missing registry sections");
  const JsonValue& hists = doc.at("histograms");
  check(hists.is_object(), path + ": histograms is not an object");
  for (const auto& [name, h] : hists.object) {
    for (const char* key :
         {"count", "sum", "mean", "min", "max", "p50", "p95", "p99"}) {
      check(h.has(key), path + ": histogram '" + name + "' missing " + key);
    }
  }
  std::printf("metrics ok: %zu histograms\n", hists.object.size());
}

// Postmortem-bundle checks (--postmortem FILE, schema t2c.postmortem.v1):
// the document the crash handlers wrote from signal context must parse,
// name its reason (signal or stall, each with its detail fields), carry
// the build_info stamp and the lock-free vitals block, hold at least one
// flight event with a complete field set in non-decreasing time order, a
// non-empty hex backtrace, and the truncation marker.
void check_postmortem(const std::string& path) {
  const JsonValue doc = parse_json(slurp(path));
  check(doc.has("schema") && doc.at("schema").str == "t2c.postmortem.v1",
        path + ": schema is not t2c.postmortem.v1");
  check(doc.has("reason") && doc.at("reason").is_object(),
        path + ": missing reason block");
  const JsonValue& r = doc.at("reason");
  check(r.has("kind") && r.at("kind").is_string(),
        path + ": reason without kind");
  const std::string& kind = r.at("kind").str;
  check(kind == "signal" || kind == "stall",
        path + ": unknown reason kind '" + kind + "'");
  if (kind == "signal") {
    check(r.has("signal") && r.at("signal").is_string() &&
              !r.at("signal").str.empty(),
          path + ": signal reason without signal name");
    check(r.has("signo") && r.at("signo").is_number() &&
              r.at("signo").number >= 1.0,
          path + ": signal reason without signo");
  } else {
    check(r.has("stall_age_ms") && r.at("stall_age_ms").number >= 0.0,
          path + ": stall reason without stall_age_ms");
    check(r.has("stall_deadline_ms") &&
              r.at("stall_deadline_ms").number > 0.0,
          path + ": stall reason without stall_deadline_ms");
    check(r.at("stall_age_ms").number >= r.at("stall_deadline_ms").number,
          path + ": stall age below the deadline that fired");
  }
  for (const char* key : {"t_mono_ns", "t_unix_s", "pid"}) {
    check(doc.has(key) && doc.at(key).is_number() &&
              doc.at(key).number >= 0.0,
          path + ": missing " + key);
  }
  check_build_info(doc, path);
  check(doc.has("metrics") && doc.at("metrics").is_object(),
        path + ": missing metrics block");
  const JsonValue& m = doc.at("metrics");
  for (const char* key : {"requests_started", "requests_done",
                          "flight_events", "flight_dropped", "flight_rings",
                          "steps_recorded"}) {
    check(m.has(key) && m.at(key).is_number() && m.at(key).number >= 0.0,
          path + ": metrics missing " + key);
  }
  check(m.has("last_step") && m.at("last_step").is_string() &&
            !m.at("last_step").str.empty(),
        path + ": metrics missing last_step");
  check(doc.has("active_requests") && doc.at("active_requests").is_array(),
        path + ": missing active_requests array");
  for (const JsonValue& a : doc.at("active_requests").array) {
    check(a.has("id") && a.at("id").number >= 1.0 && a.has("age_ms"),
          path + ": malformed active request entry");
  }
  check(doc.has("flight") && doc.at("flight").is_object(),
        path + ": missing flight block");
  const JsonValue& fl = doc.at("flight");
  check(fl.has("dropped") && fl.at("dropped").is_number() &&
            fl.at("dropped").number >= 0.0,
        path + ": flight block without dropped count");
  check(fl.has("events") && fl.at("events").is_array() &&
            !fl.at("events").array.empty(),
        path + ": flight block without events");
  const std::set<std::string> kKinds = {"step",       "request_start",
                                        "request_done", "saturation",
                                        "pool_region",  "mark"};
  double last_t = -1.0;
  for (const JsonValue& e : fl.at("events").array) {
    check(e.has("t_ns") && e.at("t_ns").number >= last_t,
          path + ": flight events not in time order");
    last_t = e.at("t_ns").number;
    check(e.has("kind") && kKinds.count(e.at("kind").str) == 1,
          path + ": flight event with unknown kind");
    check(e.has("name") && e.at("name").is_string() &&
              !e.at("name").str.empty(),
          path + ": flight event without a name");
    check(e.has("value") && e.at("value").is_number(),
          path + ": flight event without a value");
    check(e.has("req") && e.at("req").number >= 0.0,
          path + ": flight event without a req id");
    check(e.has("thread") && e.at("thread").is_string(),
          path + ": flight event without a thread");
  }
  check(doc.has("backtrace") && doc.at("backtrace").is_array() &&
            !doc.at("backtrace").array.empty(),
        path + ": missing backtrace");
  for (const JsonValue& f : doc.at("backtrace").array) {
    check(f.is_string() && f.str.rfind("0x", 0) == 0,
          path + ": backtrace frame is not a hex address");
  }
  check(doc.has("truncated") &&
            doc.at("truncated").kind == JsonValue::Kind::kBool,
        path + ": missing truncated marker");
  std::printf("postmortem ok: %s, %zu flight events, %zu frames, "
              "%zu active requests\n",
              kind.c_str(), fl.at("events").array.size(),
              doc.at("backtrace").array.size(),
              doc.at("active_requests").array.size());
}

// ---- Prometheus text exposition ----

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    if (i == 0 ? !alpha : !(alpha || (c >= '0' && c <= '9'))) return false;
  }
  return true;
}

bool valid_label_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_';
    if (i == 0 ? !alpha : !(alpha || (c >= '0' && c <= '9'))) return false;
  }
  return true;
}

struct PromSample {
  std::string name;
  std::string labels;  ///< canonical "k=v,k=v" excluding `le`
  double le = 0.0;     ///< parsed le label (histogram buckets)
  bool has_le = false;
  double value = 0.0;
  bool has_exemplar = false;  ///< OpenMetrics `# {labels} value` suffix
  double exemplar_value = 0.0;
  std::string exemplar_labels;
};

/// Parses one `name{labels} value` line; fails loudly on grammar errors.
PromSample parse_sample(const std::string& line, const std::string& where) {
  PromSample s;
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  s.name = line.substr(0, i);
  check(valid_metric_name(s.name), where + ": bad metric name '" + s.name +
                                       "' in: " + line);
  if (i < line.size() && line[i] == '{') {
    ++i;
    std::map<std::string, std::string> labels;
    while (i < line.size() && line[i] != '}') {
      std::size_t eq = line.find('=', i);
      check(eq != std::string::npos, where + ": unterminated label in: " + line);
      const std::string lname = line.substr(i, eq - i);
      check(valid_label_name(lname),
            where + ": bad label name '" + lname + "' in: " + line);
      check(eq + 1 < line.size() && line[eq + 1] == '"',
            where + ": unquoted label value in: " + line);
      std::string lval;
      i = eq + 2;
      bool closed = false;
      while (i < line.size()) {
        const char c = line[i];
        if (c == '\\') {
          check(i + 1 < line.size(), where + ": dangling escape in: " + line);
          const char e = line[i + 1];
          check(e == '\\' || e == '"' || e == 'n',
                where + ": bad escape \\" + std::string(1, e) + " in: " + line);
          lval += e == 'n' ? '\n' : e;
          i += 2;
        } else if (c == '"') {
          closed = true;
          ++i;
          break;
        } else {
          lval += c;
          ++i;
        }
      }
      check(closed, where + ": unterminated label value in: " + line);
      check(labels.emplace(lname, lval).second,
            where + ": duplicate label '" + lname + "' in: " + line);
      if (i < line.size() && line[i] == ',') ++i;
    }
    check(i < line.size() && line[i] == '}',
          where + ": unterminated label block in: " + line);
    ++i;
    for (const auto& [k, v] : labels) {
      if (k == "le") {
        s.has_le = true;
        s.le = v == "+Inf" ? std::numeric_limits<double>::infinity()
                           : std::atof(v.c_str());
      } else {
        if (!s.labels.empty()) s.labels += ',';
        s.labels += k + "=" + v;
      }
    }
  }
  check(i < line.size() && line[i] == ' ',
        where + ": missing value separator in: " + line);
  std::string val = line.substr(i + 1);
  // OpenMetrics exemplar suffix — `value # {labels} exemplar-value` — is
  // only legal on histogram bucket samples; the exemplar value must fall
  // inside the bucket it decorates.
  const std::size_t ex = val.find(" # ");
  if (ex != std::string::npos) {
    const std::string tail = val.substr(ex + 3);
    val = val.substr(0, ex);
    check(s.has_le, where + ": exemplar on a non-bucket sample: " + line);
    check(!tail.empty() && tail[0] == '{',
          where + ": exemplar without a label set in: " + line);
    const std::size_t close = tail.find('}');
    check(close != std::string::npos,
          where + ": unterminated exemplar labels in: " + line);
    s.exemplar_labels = tail.substr(1, close - 1);
    check(s.exemplar_labels.find('=') != std::string::npos,
          where + ": empty exemplar label set in: " + line);
    const std::string exval = tail.substr(close + 1);
    check(exval.size() >= 2 && exval[0] == ' ' &&
              exval.find(' ', 1) == std::string::npos,
          where + ": malformed exemplar value in: " + line);
    s.has_exemplar = true;
    s.exemplar_value = std::atof(exval.c_str() + 1);
    check(s.exemplar_value <= s.le,
          where + ": exemplar value above its bucket le in: " + line);
  }
  check(!val.empty() && val.find(' ') == std::string::npos,
        where + ": malformed value in: " + line);
  s.value = std::atof(val.c_str());
  return s;
}

void check_prom_text(const std::string& body, const std::string& where) {
  check(!body.empty() && body.back() == '\n',
        where + ": exposition must end in a newline");
  std::map<std::string, std::string> types;  ///< family -> TYPE
  std::set<std::string> helps;
  // (family, labels) -> bucket series in appearance order / _count value.
  std::map<std::string, std::vector<PromSample>> buckets;
  std::map<std::string, double> counts;
  std::size_t samples = 0;
  std::size_t exemplars = 0;
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash;
      std::string kind;
      std::string fam;
      ls >> hash >> kind >> fam;
      check(kind == "HELP" || kind == "TYPE",
            where + ": unknown comment form: " + line);
      check(valid_metric_name(fam), where + ": bad family name in: " + line);
      if (kind == "HELP") {
        check(helps.insert(fam).second,
              where + ": duplicate HELP for " + fam);
      } else {
        std::string type;
        ls >> type;
        check(type == "counter" || type == "gauge" || type == "histogram",
              where + ": bad TYPE '" + type + "' for " + fam);
        check(types.emplace(fam, type).second,
              where + ": duplicate TYPE for " + fam);
      }
      continue;
    }
    const PromSample s = parse_sample(line, where);
    ++samples;
    if (s.has_exemplar) ++exemplars;
    // Resolve the sample to its family: histogram samples append
    // _bucket/_sum/_count, counters append _total.
    std::string fam = s.name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string suf = suffix;
      if (fam.size() > suf.size() &&
          fam.compare(fam.size() - suf.size(), suf.size(), suf) == 0 &&
          types.count(fam.substr(0, fam.size() - suf.size()))) {
        fam = fam.substr(0, fam.size() - suf.size());
        break;
      }
    }
    check(types.count(fam) == 1,
          where + ": sample before TYPE (or unknown family): " + line);
    check(helps.count(fam) == 1, where + ": family without HELP: " + fam);
    if (types.at(fam) == "histogram") {
      const std::string key = fam + "{" + s.labels + "}";
      if (s.has_le) {
        buckets[key].push_back(s);
      } else if (s.name == fam + "_count") {
        counts[key] = s.value;
      }
    } else {
      check(!s.has_le, where + ": le label outside a histogram: " + line);
    }
  }
  check(samples > 0, where + ": no samples");
  for (const auto& [key, series] : buckets) {
    check(!series.empty(), where + ": histogram without buckets: " + key);
    double prev_le = -std::numeric_limits<double>::infinity();
    double prev_v = -1.0;
    for (const PromSample& b : series) {
      check(b.le > prev_le, where + ": le not increasing for " + key);
      check(b.value >= prev_v,
            where + ": bucket counts not cumulative for " + key);
      prev_le = b.le;
      prev_v = b.value;
    }
    check(series.back().le ==
              std::numeric_limits<double>::infinity(),
          where + ": histogram missing +Inf bucket: " + key);
    const auto it = counts.find(key);
    check(it != counts.end(), where + ": histogram missing _count: " + key);
    check(series.back().value == it->second,
          where + ": +Inf bucket != _count for " + key);
  }
  std::printf("prom ok: %zu families, %zu samples, %zu histogram series, "
              "%zu exemplars\n",
              types.size(), samples, buckets.size(), exemplars);
}

void check_prom(const std::string& path) {
  check_prom_text(slurp(path), path);
}

/// Fetches http://127.0.0.1:<port><url_path> over a raw socket (no curl
/// dependency), requires a 200, and returns the body.
std::string http_fetch(int port, const std::string& url_path,
                       const std::string& who) {
  check(port > 0 && port <= 65535,
        who + ": bad port " + std::to_string(port));
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  check(fd >= 0, who + ": socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  check(connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0,
        who + ": cannot connect to 127.0.0.1:" + std::to_string(port));
  const std::string req =
      "GET " + url_path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  check(send(fd, req.c_str(), req.size(), 0) ==
            static_cast<ssize_t>(req.size()),
        who + ": send failed");
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  check(resp.rfind("HTTP/1.0 200", 0) == 0 ||
            resp.rfind("HTTP/1.1 200", 0) == 0,
        who + ": non-200 response for " + url_path + ": " +
            resp.substr(0, 64));
  const std::size_t split = resp.find("\r\n\r\n");
  check(split != std::string::npos, who + ": malformed response");
  return resp.substr(split + 4);
}

void scrape_prom(const std::string& port_str) {
  const int port = std::atoi(port_str.c_str());
  const std::string body = http_fetch(port, "/metrics", "--prom-scrape");
  if (const char* dump = std::getenv("T2C_PROM_DUMP")) {
    std::ofstream os(dump);
    check(os.good(), std::string("--prom-scrape: cannot write ") + dump);
    os << body;
  }
  check_prom_text(body, "scrape 127.0.0.1:" + port_str);
}

/// `--fetch PORT:PATH` — generic exporter GET printing the body verbatim,
/// so shell gates can pull /exemplars and /requests/<id> without curl.
void fetch_url(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  check(colon != std::string::npos && colon > 0 && colon + 1 < spec.size() &&
            spec[colon + 1] == '/',
        "--fetch expects PORT:/PATH, got '" + spec + "'");
  const int port = std::atoi(spec.substr(0, colon).c_str());
  const std::string body =
      http_fetch(port, spec.substr(colon + 1), "--fetch");
  std::fwrite(body.data(), 1, body.size(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bool any = false;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string path = argv[i + 1];
      if (flag == "--trace") check_trace(path);
      else if (flag == "--profile") check_profile(path);
      else if (flag == "--metrics") check_metrics(path);
      else if (flag == "--bench") check_bench(path);
      else if (flag == "--prom") check_prom(path);
      else if (flag == "--prom-scrape") scrape_prom(path);
      else if (flag == "--postmortem") check_postmortem(path);
      else if (flag == "--fetch") fetch_url(path);
      else t2c::fail("unknown flag '" + flag + "'");
      any = true;
    }
    check(any, "usage: t2c_json_check [--trace F] [--profile F] "
               "[--metrics F] [--bench F] [--prom F] "
               "[--prom-scrape PORT] [--postmortem F] [--fetch PORT:/PATH]");
    return 0;
  } catch (const t2c::Error& e) {
    std::fprintf(stderr, "t2c_json_check: %s\n", e.what());
    return 1;
  }
}
