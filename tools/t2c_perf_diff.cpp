// t2c_perf_diff — noise-aware comparator for two t2c.bench.v1 documents
// (the BENCH_runtime.json files bench_regress writes).
//
//   t2c_perf_diff OLD.json NEW.json [--floor F] [--sigma S] [--cap C]
//                 [--soft] [--markdown PATH] [--selftest]
//
// Per shared row the compared statistic is min-of-reps (the least noisy
// estimate of the true cost; mean_ms is the legacy fallback). The verdict
// window is derived from the run's own variance instead of a fixed
// threshold:
//
//   window = clamp(max(floor,
//                      sigma * cv_old, sigma * cv_new,
//                      sigma * ipc_cv_old, sigma * ipc_cv_new),
//                  floor, cap)
//
// where cv = stddev_ms / mean_ms and ipc_cv (present when the bench ran
// with T2C_BENCH_PMU on the hardware counter tier) is the per-rep IPC
// coefficient of variation — an unstable IPC means the machine moved, not
// the code, so the window widens. delta = new/old - 1 beyond +window is
// `regressed`, beyond -window is `improved`, inside is `noise`. Rows that
// carry a "kernel" tag on both sides and disagree are classified `added`:
// a solver switch (e.g. gemm_i64 -> gemm_i8_fused_avx512 after a registry
// reorder) is a new measurement, not a delta of the old one. So are rows
// whose "threads" (the pool size they ran at) differ between the sides.
//
// Output is a markdown table (stdout, or --markdown PATH). Exit status: 0
// when nothing regressed, 1 when any row regressed (suppressed by --soft
// for machines where wall time is not trustworthy), 2 on usage or parse
// errors. --selftest runs the classifier against synthetic documents
// (injected 20% slowdown => regressed, small jitter => noise, a kernel or
// pool-size switch => added) and needs no input files.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/jsonlite.h"

namespace {

using t2c::jsonlite::JsonValue;
using t2c::jsonlite::parse_json;

struct RowStat {
  double stat_ms = 0.0;  ///< min_ms, or mean_ms for legacy rows
  double cv = 0.0;       ///< stddev_ms / mean_ms
  double ipc_cv = 0.0;   ///< 0 when the row carries no PMU data
  std::string kernel;    ///< code-path tag; empty for untagged rows
  int threads = 0;       ///< pool size; 0 for rows that predate the field
};

struct Options {
  double floor = 0.05;  ///< minimum relative window (5%)
  double sigma = 4.0;   ///< cv multiplier
  double cap = 0.25;    ///< maximum relative window (25%)
  bool soft = false;
  std::string markdown;
};

struct Verdict {
  std::string key;
  double old_ms = 0.0;
  double new_ms = 0.0;
  double delta = 0.0;   ///< new/old - 1
  double window = 0.0;  ///< relative, symmetric
  std::string klass;    ///< improved | regressed | noise | added | removed
};

double num_or(const JsonValue& row, const char* key, double fallback) {
  if (!row.has(key)) return fallback;
  const JsonValue& v = row.at(key);
  return v.is_number() ? v.number : fallback;
}

/// Flattens one t2c.bench.v1 document into "<bench>/<row>" -> RowStat.
/// Accepts both per-bench forms: {"build_info":...,"rows":[...]} and the
/// legacy bare array.
std::map<std::string, RowStat> load_rows(const JsonValue& doc,
                                         const std::string& label) {
  t2c::check(doc.is_object() && doc.has("benches"),
             label + ": not a t2c.bench.v1 document (no \"benches\")");
  if (doc.has("schema")) {
    t2c::check(doc.at("schema").str == "t2c.bench.v1",
               label + ": unknown schema '" + doc.at("schema").str + "'");
  }
  std::map<std::string, RowStat> out;
  for (const auto& [bench, value] : doc.at("benches").object) {
    const std::vector<JsonValue>* rows = nullptr;
    if (value.is_array()) {
      rows = &value.array;
    } else if (value.is_object() && value.has("rows")) {
      t2c::check(value.at("rows").is_array(),
                 label + ": " + bench + ".rows is not an array");
      rows = &value.at("rows").array;
    } else {
      t2c::fail(label + ": bench '" + bench +
                "' is neither a row array nor an object with \"rows\"");
    }
    for (const JsonValue& row : *rows) {
      t2c::check(row.is_object() && row.has("name"),
                 label + ": " + bench + " row without \"name\"");
      RowStat s;
      const double mean = num_or(row, "mean_ms", 0.0);
      s.stat_ms = num_or(row, "min_ms", mean);
      const double stddev = num_or(row, "stddev_ms", 0.0);
      if (mean > 0.0) s.cv = stddev / mean;
      s.ipc_cv = num_or(row, "ipc_cv", 0.0);
      if (row.has("kernel")) s.kernel = row.at("kernel").str;
      s.threads = static_cast<int>(num_or(row, "threads", 0.0));
      out[bench + "/" + row.at("name").str] = s;
    }
  }
  return out;
}

double window_of(const RowStat& a, const RowStat& b, const Options& opt) {
  double w = opt.floor;
  w = std::max(w, opt.sigma * a.cv);
  w = std::max(w, opt.sigma * b.cv);
  w = std::max(w, opt.sigma * a.ipc_cv);
  w = std::max(w, opt.sigma * b.ipc_cv);
  return std::min(w, opt.cap);
}

std::vector<Verdict> classify(const std::map<std::string, RowStat>& olds,
                              const std::map<std::string, RowStat>& news,
                              const Options& opt) {
  std::vector<Verdict> out;
  for (const auto& [key, o] : olds) {
    Verdict v;
    v.key = key;
    v.old_ms = o.stat_ms;
    const auto it = news.find(key);
    if (it == news.end()) {
      v.klass = "removed";
      out.push_back(std::move(v));
      continue;
    }
    v.new_ms = it->second.stat_ms;
    const RowStat& n = it->second;
    if ((!o.kernel.empty() && !n.kernel.empty() && o.kernel != n.kernel) ||
        (o.threads > 0 && n.threads > 0 && o.threads != n.threads)) {
      // Same row name, different code path or pool size: the old timing
      // measured a configuration that no longer runs, so there is nothing
      // to regress against — restart the row's history.
      v.klass = "added";
      out.push_back(std::move(v));
      continue;
    }
    v.window = window_of(o, n, opt);
    v.delta = o.stat_ms > 0.0 ? v.new_ms / v.old_ms - 1.0 : 0.0;
    if (v.delta > v.window) {
      v.klass = "regressed";
    } else if (v.delta < -v.window) {
      v.klass = "improved";
    } else {
      v.klass = "noise";
    }
    out.push_back(std::move(v));
  }
  for (const auto& [key, n] : news) {
    if (olds.count(key) != 0U) continue;
    Verdict v;
    v.key = key;
    v.new_ms = n.stat_ms;
    v.klass = "added";
    out.push_back(std::move(v));
  }
  return out;
}

std::string markdown_table(const std::vector<Verdict>& verdicts) {
  std::ostringstream os;
  os << "| bench/row | old ms | new ms | delta | window | verdict |\n";
  os << "|---|---:|---:|---:|---:|---|\n";
  char buf[256];
  for (const Verdict& v : verdicts) {
    const auto cell = [&](double ms) {
      if (ms <= 0.0) return std::string("-");
      std::snprintf(buf, sizeof(buf), "%.3f", ms);
      return std::string(buf);
    };
    const std::string old_cell = cell(v.old_ms);
    const std::string new_cell = cell(v.new_ms);
    if (v.klass == "added" || v.klass == "removed") {
      std::snprintf(buf, sizeof(buf), "| %s | %s | %s | - | - | %s |\n",
                    v.key.c_str(), old_cell.c_str(), new_cell.c_str(),
                    v.klass.c_str());
    } else {
      std::snprintf(buf, sizeof(buf),
                    "| %s | %s | %s | %+.1f%% | ±%.1f%% | %s |\n",
                    v.key.c_str(), old_cell.c_str(), new_cell.c_str(),
                    100.0 * v.delta, 100.0 * v.window, v.klass.c_str());
    }
    os << buf;
  }
  return os.str();
}

int count_class(const std::vector<Verdict>& vs, const char* klass) {
  int n = 0;
  for (const Verdict& v : vs) n += v.klass == klass ? 1 : 0;
  return n;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  t2c::check(is.good(), "cannot read " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Synthetic-document classifier check (no input files): the gate must
/// flag a real slowdown and must NOT flag jitter or a machine-state shift.
int selftest(const Options& opt) {
  const auto doc = [](const std::string& rows) {
    return parse_json("{\"schema\":\"t2c.bench.v1\",\"benches\":{\"b\":"
                      "{\"build_info\":{},\"rows\":[" + rows + "]}}}");
  };
  const auto row = [](const char* name, double min_ms, double mean_ms,
                      double stddev_ms, double ipc_cv,
                      const char* kernel = nullptr, int threads = 0) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"reps\":9,\"min_ms\":%.4f,"
                  "\"mean_ms\":%.4f,\"p50_ms\":%.4f,\"p95_ms\":%.4f,"
                  "\"stddev_ms\":%.4f,\"ipc_cv\":%.4f",
                  name, min_ms, mean_ms, mean_ms, mean_ms * 1.1, stddev_ms,
                  ipc_cv);
    std::string out(buf);
    if (kernel != nullptr) {
      out += std::string(",\"kernel\":\"") + kernel + "\"";
    }
    if (threads > 0) out += ",\"threads\":" + std::to_string(threads);
    return out + "}";
  };
  // old: seven stable rows. new: slow regressed 20%; jitter moved 3%;
  // shifted moved 20% but with wildly unstable IPC (machine, not code);
  // fast improved 30%; switched improved 4x but on a different kernel
  // tag, so its history restarts instead of reading as an improvement;
  // rethreaded ran 2x slower on a 1-thread pool where the old side had 4
  // (restarts too), and pooled moved 3% at the same pool size.
  const JsonValue olds = doc(row("slow", 10.0, 10.2, 0.05, 0.01) + "," +
                             row("jitter", 5.0, 5.1, 0.04, 0.01) + "," +
                             row("shifted", 8.0, 8.1, 0.05, 0.01) + "," +
                             row("fast", 20.0, 20.3, 0.1, 0.01) + "," +
                             row("switched", 8.0, 8.1, 0.05, 0.01,
                                 "gemm_i64") + "," +
                             row("rethreaded", 2.0, 2.1, 0.02, 0.01,
                                 "gemm_i8_fused", 4) + "," +
                             row("pooled", 2.0, 2.1, 0.02, 0.01,
                                 "gemm_i8_fused", 4));
  const JsonValue news = doc(row("slow", 12.0, 12.2, 0.05, 0.01) + "," +
                             row("jitter", 5.15, 5.3, 0.04, 0.01) + "," +
                             row("shifted", 9.6, 9.8, 0.05, 0.08) + "," +
                             row("fast", 14.0, 14.2, 0.1, 0.01) + "," +
                             row("switched", 2.0, 2.1, 0.02, 0.01,
                                 "gemm_i8_fused") + "," +
                             row("rethreaded", 4.0, 4.1, 0.02, 0.01,
                                 "gemm_i8_fused", 1) + "," +
                             row("pooled", 2.06, 2.1, 0.02, 0.01,
                                 "gemm_i8_fused", 4) + "," +
                             row("brand_new", 1.0, 1.0, 0.01, 0.0));
  const std::vector<Verdict> vs =
      classify(load_rows(olds, "old"), load_rows(news, "new"), opt);
  std::printf("%s", markdown_table(vs).c_str());
  int failures = 0;
  const auto expect = [&](const char* key, const char* klass) {
    for (const Verdict& v : vs) {
      if (v.key != std::string("b/") + key) continue;
      if (v.klass == klass) return;
      std::printf("selftest FAIL: %s classified %s, expected %s\n", key,
                  v.klass.c_str(), klass);
      ++failures;
      return;
    }
    std::printf("selftest FAIL: no verdict for %s\n", key);
    ++failures;
  };
  expect("slow", "regressed");
  expect("jitter", "noise");
  expect("shifted", "noise");
  expect("fast", "improved");
  expect("switched", "added");
  expect("rethreaded", "added");
  expect("pooled", "noise");
  expect("brand_new", "added");
  std::printf(failures == 0 ? "selftest OK (8 cases)\n"
                            : "selftest: %d failure(s)\n",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt;
    std::vector<std::string> files;
    bool run_selftest = false;
    for (int i = 1; i < argc; ++i) {
      const std::string f = argv[i];
      const auto want = [&]() -> const char* {
        t2c::check(i + 1 < argc, "missing value for " + f);
        return argv[++i];
      };
      if (f == "--floor") opt.floor = std::atof(want());
      else if (f == "--sigma") opt.sigma = std::atof(want());
      else if (f == "--cap") opt.cap = std::atof(want());
      else if (f == "--soft") opt.soft = true;
      else if (f == "--markdown") opt.markdown = want();
      else if (f == "--selftest") run_selftest = true;
      else if (f == "--help") {
        std::puts("usage: t2c_perf_diff OLD.json NEW.json [--floor F]"
                  " [--sigma S] [--cap C] [--soft] [--markdown PATH]"
                  " [--selftest]");
        return 0;
      } else if (!f.empty() && f[0] == '-') {
        t2c::fail("unknown flag '" + f + "' (try --help)");
      } else {
        files.push_back(f);
      }
    }
    t2c::check(opt.floor >= 0.0 && opt.cap >= opt.floor && opt.sigma >= 0.0,
               "need 0 <= floor <= cap and sigma >= 0");
    if (run_selftest) return selftest(opt);
    t2c::check(files.size() == 2,
               "expected exactly OLD.json and NEW.json (try --help)");
    const JsonValue old_doc = parse_json(read_file(files[0]));
    const JsonValue new_doc = parse_json(read_file(files[1]));
    const std::vector<Verdict> vs = classify(load_rows(old_doc, files[0]),
                                             load_rows(new_doc, files[1]),
                                             opt);
    const std::string table = markdown_table(vs);
    if (opt.markdown.empty()) {
      std::printf("%s", table.c_str());
    } else {
      std::ofstream os(opt.markdown);
      t2c::check(os.good(), "cannot write " + opt.markdown);
      os << table;
    }
    const int regressed = count_class(vs, "regressed");
    std::printf("perf diff: %d regressed, %d improved, %d noise, "
                "%d added, %d removed%s\n",
                regressed, count_class(vs, "improved"),
                count_class(vs, "noise"), count_class(vs, "added"),
                count_class(vs, "removed"),
                regressed > 0 && opt.soft ? " (soft gate: exit 0)" : "");
    return regressed > 0 && !opt.soft ? 1 : 0;
  } catch (const t2c::Error& e) {
    std::fprintf(stderr, "t2c_perf_diff: %s\n", e.what());
    return 2;
  }
}
