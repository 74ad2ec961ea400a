#include "tensor/solver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tensor/matmul.h"
#include "util/build_info.h"
#include "util/jsonlite.h"

namespace t2c::solver {

namespace {

/// Nominal instantiation of a dynamic ('*') dimension for benchmarking:
/// large enough that per-call pack/setup overheads show at their real
/// relative weight, small enough that a full autotune stays sub-second
/// per problem.
constexpr std::int64_t kNominalDim = 256;

std::int64_t dim_or(std::int64_t v, std::int64_t nominal) {
  return v > 0 ? v : nominal;
}

std::string dim_tok(std::int64_t v) {
  return v < 0 ? std::string("*") : std::to_string(v);
}

/// Deterministic operand fill (no global RNG: autotune results must not
/// depend on call order elsewhere in the process).
struct Lcg {
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  std::int64_t next(std::int64_t bound) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::int64_t>((s >> 33) %
                                     static_cast<std::uint64_t>(2 * bound + 1)) -
           bound;
  }
};

/// Best-of-reps wall time in milliseconds, capped at 3 reps or ~25 ms of
/// measurement per solver (min beats mean against scheduler noise; the
/// perf-regression gate makes the same argument).
template <typename F>
double time_best(F&& run) {
  double best = 1e300;
  double spent = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    best = std::min(best, ms);
    spent += ms;
    if (spent > 25.0) break;
  }
  return best;
}

std::int64_t clamp_bound(std::int64_t v) {
  return std::max<std::int64_t>(1, std::min(v, i8::kOperandMax));
}

/// Separate-requant cost model for un-fused solvers on an epilogue-bearing
/// problem: the real graph would run the MulQuant op over the GEMM output,
/// so the bench adds the same per-element fixed-point sweep to keep the
/// fused/unfused comparison honest.
void requant_sweep(std::vector<std::int64_t>& c) {
  constexpr std::int64_t mul = 16, half = std::int64_t{1} << 7;
  constexpr int f = 8;
  for (auto& v : c) {
    const std::int64_t y = (mul * v + half) >> f;
    v = std::min<std::int64_t>(127, std::max<std::int64_t>(-127, y));
  }
}

double bench_raw_i64(const Problem& p, bool naive) {
  const std::int64_t m = dim_or(p.m, kNominalDim);
  const std::int64_t n = dim_or(p.n, kNominalDim);
  const std::int64_t k = dim_or(p.k, kNominalDim);
  Lcg rng;
  std::vector<std::int64_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int64_t> b(static_cast<std::size_t>(k * n));
  std::vector<std::int64_t> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = rng.next(7);
  for (auto& v : b) v = rng.next(7);
  return time_best([&] {
    std::fill(c.begin(), c.end(), std::int64_t{0});
    if (naive) {
      detail::gemm_i64_naive(a.data(), b.data(), c.data(), m, n, k, false,
                             false, /*threaded=*/false);
    } else {
      detail::gemm_i64_tiled(a.data(), b.data(), c.data(), m, n, k, false,
                             false, /*threaded=*/false);
    }
  });
}

/// Linear-shaped int8 bench: prepacked B (weights), int64 activations,
/// scalar requant epilogue when the solver fuses.
double bench_i8_linear(const Problem& p, bool fuse, i8::MicroKernel mk) {
  const std::int64_t m = dim_or(p.m, kNominalDim);
  const std::int64_t n = dim_or(p.n, kNominalDim);
  const std::int64_t k = dim_or(p.k, kNominalDim);
  const std::int64_t amax = clamp_bound(p.a_max);
  const std::int64_t wmax = clamp_bound(p.w_max);
  Lcg rng;
  std::vector<std::int64_t> w(static_cast<std::size_t>(k * n));
  for (auto& v : w) v = rng.next(wmax);
  const auto pb = i8::pack_b(w.data(), k, n, /*trans_b=*/false);
  std::vector<std::int64_t> a(static_cast<std::size_t>(m * k));
  for (auto& v : a) v = rng.next(amax);
  std::vector<std::int64_t> c(static_cast<std::size_t>(m * n));
  const std::int64_t mul[1] = {16};
  const std::int64_t bias[1] = {0};
  i8::Epilogue ep;
  if (fuse) {
    ep.mode = i8::Epilogue::Mode::kScalar;
    ep.mul = mul;
    ep.bias = bias;
    ep.frac0 = 8;
    ep.lo = -127;
    ep.hi = 127;
  }
  return time_best([&] {
    i8::gemm_b_packed(a.data(), *pb, c.data(), m, ep, /*threaded=*/false, mk);
    if (!fuse && p.epilogue) requant_sweep(c);
  });
}

/// Conv-shaped int8 bench: prepacked A (one weight group) over a 1x1
/// conv whose n output pixels form the folded panel columns, per-row
/// requant epilogue when the solver fuses.
double bench_i8_conv(const Problem& p, bool fuse, i8::MicroKernel mk) {
  const std::int64_t m = dim_or(p.m, 16);
  const std::int64_t n = dim_or(p.n, kNominalDim);
  const std::int64_t k = dim_or(p.k, kNominalDim);
  const std::int64_t amax = clamp_bound(p.a_max);
  const std::int64_t wmax = clamp_bound(p.w_max);
  Lcg rng;
  std::vector<std::int64_t> w(static_cast<std::size_t>(m * k));
  for (auto& v : w) v = rng.next(wmax);
  const auto pa = i8::pack_a(w.data(), m, k, /*groups=*/1);
  ConvSpec spec;
  spec.in_channels = k;
  spec.out_channels = m;
  spec.kernel = 1;
  std::vector<std::int64_t> x(static_cast<std::size_t>(k * n));
  for (auto& v : x) v = rng.next(amax);
  std::vector<std::int64_t> c(static_cast<std::size_t>(m * n));
  std::vector<std::int64_t> mul(static_cast<std::size_t>(m), 16);
  std::vector<std::int64_t> bias(static_cast<std::size_t>(m), 0);
  i8::Epilogue ep;
  if (fuse) {
    ep.mode = i8::Epilogue::Mode::kPerRow;
    ep.mul = mul.data();
    ep.bias = bias.data();
    ep.frac0 = 8;
    ep.lo = -127;
    ep.hi = 127;
  }
  return time_best([&] {
    i8::conv_packed(x.data(), 1, 1, n, spec, *pa, c.data(), ep,
                    /*threaded=*/false, mk);
    if (!fuse && p.epilogue) requant_sweep(c);
  });
}

}  // namespace

const char* op_kind_name(OpKind op) {
  switch (op) {
    case OpKind::kGemmF32: return "gemm_f32";
    case OpKind::kGemmI64: return "gemm_i64";
    case OpKind::kConvInt: return "conv_int";
    case OpKind::kLinearInt: return "linear_int";
    case OpKind::kAttnInt: return "attn_int";
  }
  return "unknown";
}

std::string Problem::key() const {
  std::ostringstream os;
  os << op_kind_name(op) << "|m" << dim_tok(m) << "|n" << dim_tok(n) << "|k"
     << dim_tok(k) << "|g" << groups << "|a" << a_max << "|w" << w_max << "|e"
     << (epilogue ? 1 : 0) << "|x" << (aux_ok ? 1 : 0) << '|'
     << util::isa_tier_name(isa) << "|t" << threads;
  return os.str();
}

struct Registry::State {
  std::mutex mu;
  std::unordered_map<std::string, Entry> entries;
  /// Keys that came from a loaded file (hit accounting vs. in-run memos).
  std::unordered_set<std::string> loaded_keys;
  /// Distinct tunable problems consulted this run (--tune full only).
  std::unordered_set<std::string> seen;
  std::atomic<bool> loaded{false};
  bool dirty = false;
  std::int64_t problems = 0, hits = 0, benchmarked = 0;
};

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Registry::Registry() : state_(new State()) {
  using util::IsaTier;
  const auto always = [](const Problem&) { return std::string(); };

  // Raw f32 GEMM. Heuristic-only: tiled and naive sum floats in different
  // orders, so swapping them would change bits — the registry never tunes
  // across numerically distinct solvers.
  {
    Solver s;
    s.name = "gemm_f32_tiled";
    s.op = OpKind::kGemmF32;
    s.variant = 0;
    s.gates = "always";
    s.applicable = always;
    solvers_.push_back(std::move(s));
  }
  {
    Solver s;
    s.name = "gemm_f32_naive";
    s.op = OpKind::kGemmF32;
    s.variant = 1;
    s.gates = "always (reference, never preferred)";
    s.applicable = always;
    solvers_.push_back(std::move(s));
  }

  // Raw i64 GEMM. Exact integer arithmetic in ascending-K order on both
  // paths, so they are bit-identical and safely tunable: tiny shapes can
  // beat the tiled path's packing overhead with the naive loop.
  {
    Solver s;
    s.name = "gemm_i64_tiled";
    s.op = OpKind::kGemmI64;
    s.variant = 0;
    s.tunable = true;
    s.gates = "always";
    s.applicable = always;
    s.bench = [](const Problem& p) { return bench_raw_i64(p, false); };
    solvers_.push_back(std::move(s));
  }
  {
    Solver s;
    s.name = "gemm_i64_naive";
    s.op = OpKind::kGemmI64;
    s.variant = 1;
    s.tunable = true;
    s.gates = "always";
    s.applicable = always;
    s.bench = [](const Problem& p) { return bench_raw_i64(p, true); };
    solvers_.push_back(std::move(s));
  }

  // Packed int8 family for conv and linear ops. List order = the PR 8
  // static preference: fused beats unfused, wider micro-kernels beat
  // narrower. Gates check semantics first (overflow proof, then epilogue
  // availability) and ISA last, so a decline reason is never "isa" when
  // the real blocker is the math — and the scalar variants carry no ISA
  // gate at all, keeping the family reachable on any CPU.
  struct Mk {
    const char* suffix;
    IsaTier need;
    i8::MicroKernel mk;
  };
  const Mk kMks[] = {
      {"avx512", IsaTier::kAvx512, i8::MicroKernel::kAvx512},
      {"avx2", IsaTier::kAvx2, i8::MicroKernel::kAvx2},
      {"scalar", IsaTier::kGeneric, i8::MicroKernel::kScalar},
  };
  for (const OpKind op : {OpKind::kConvInt, OpKind::kLinearInt}) {
    const bool conv = op == OpKind::kConvInt;
    // A conv with one output channel per group (depthwise) is a 1-row GEMM
    // per (image, group): the direct kernel skips im2col and the 4x32
    // register tile entirely. Heuristic-only — its speed depends on the
    // kernel geometry and spatial size, which the problem key does not
    // carry — so tuning never trades it for a GEMM variant.
    for (const bool fuse : {true, false}) {
      if (!conv) continue;
      Solver s;
      s.name = fuse ? "dwconv_i8_fused" : "dwconv_i8";
      s.op = op;
      s.i8 = true;
      s.fuse = fuse;
      s.gates = std::string("i32 accum proof; one output channel per group") +
                (fuse ? "; fusable requant" : "");
      s.applicable = [fuse](const Problem& p) -> std::string {
        if (!i8::accum_fits_i32(p.k, p.a_max, p.w_max)) return "overflow";
        if (p.m != 1) return "shape";
        if (fuse && !p.epilogue) {
          return p.epilogue_reason.empty() ? "consumer" : p.epilogue_reason;
        }
        return "";
      };
      solvers_.push_back(std::move(s));
    }
    for (const bool fuse : {true, false}) {
      for (const Mk& v : kMks) {
        Solver s;
        s.name = std::string("gemm_i8") + (fuse ? "_fused_" : "_") + v.suffix;
        s.op = op;
        s.variant = static_cast<int>(v.mk);
        s.i8 = true;
        s.fuse = fuse;
        s.tunable = true;
        s.gates = std::string("i32 accum proof") +
                  (fuse ? "; fusable requant" : "") +
                  (v.need == IsaTier::kGeneric
                       ? ""
                       : std::string("; ") + util::isa_tier_name(v.need));
        s.applicable = [fuse, need = v.need](const Problem& p) -> std::string {
          if (!i8::accum_fits_i32(p.k, p.a_max, p.w_max)) return "overflow";
          if (fuse && !p.epilogue) {
            return p.epilogue_reason.empty() ? "consumer" : p.epilogue_reason;
          }
          if (p.isa < need) return "isa";
          return "";
        };
        s.bench = [conv, fuse, mk = v.mk](const Problem& p) {
          return conv ? bench_i8_conv(p, fuse, mk)
                      : bench_i8_linear(p, fuse, mk);
        };
        solvers_.push_back(std::move(s));
      }
    }
    Solver f;
    f.name = "gemm_i64";
    f.op = op;
    f.gates = "always (reference path)";
    f.applicable = always;
    solvers_.push_back(std::move(f));
  }

  // Attention. attn_i16 is re-gated per batch at run time (token-count
  // dependent accumulator proof), so the pair stays heuristic-only.
  {
    Solver s;
    s.name = "attn_i16";
    s.op = OpKind::kAttnInt;
    s.variant = 0;
    s.i8 = true;
    s.gates = "bounded operands; i32 accum proof; static i16 preconditions";
    s.applicable = [](const Problem& p) -> std::string {
      if (!p.aux_ok) return "static";
      if (p.a_max <= 0) return "bound";
      if (!i8::accum_fits_i32(p.k, p.a_max, p.w_max)) return "overflow";
      return "";
    };
    solvers_.push_back(std::move(s));
  }
  {
    Solver s;
    s.name = "attn_i64";
    s.op = OpKind::kAttnInt;
    s.variant = 1;
    s.gates = "always (reference path)";
    s.applicable = always;
    solvers_.push_back(std::move(s));
  }
}

SolverChoice Registry::make_choice(const Solver& s, const std::string& reason,
                                   bool tuned) const {
  SolverChoice c;
  c.name = s.name;
  c.variant = s.variant;
  c.i8 = s.i8;
  c.fuse = s.fuse;
  c.mk = s.i8 ? static_cast<i8::MicroKernel>(s.variant)
              : i8::MicroKernel::kAuto;
  c.tuned = tuned;
  c.reason = reason;
  return c;
}

const Solver* Registry::find(OpKind op, const std::string& name) const {
  for (const Solver& s : solvers_) {
    if (s.op == op && s.name == name) return &s;
  }
  return nullptr;
}

SolverChoice Registry::choose(const Problem& p) {
  const Solver* pick = nullptr;
  const Solver* tun[8];
  int ntun = 0;
  std::string first_reason;
  for (const Solver& s : solvers_) {
    if (s.op != p.op) continue;
    const std::string why = s.applicable ? s.applicable(p) : std::string();
    if (!why.empty()) {
      // Only gates ahead of the eventual pick explain the choice.
      if (pick == nullptr && first_reason.empty()) first_reason = why;
      continue;
    }
    if (pick == nullptr) pick = &s;
    if (s.tunable && s.bench && ntun < 8) tun[ntun++] = &s;
  }
  if (pick == nullptr) return SolverChoice{};  // every op has a fallback
  // Fast path — lock-free: tuning disabled, fewer than two tunable
  // candidates, or a heuristic-only pick ahead of them means there is
  // nothing to tune. This is the only path the f32 training GEMMs ever
  // take.
  if (mode_ == TuneMode::kOff || ntun < 2 || !pick->tunable) {
    return make_choice(*pick, first_reason, false);
  }
  State& st = *state_;
  const std::string key = p.key();
  if (mode_ == TuneMode::kHeuristic) {
    // Read-only exact-match lookup. The entry map is immutable once
    // load_cache() publishes `loaded`, so no lock is needed here.
    if (!st.loaded.load(std::memory_order_acquire)) {
      return make_choice(*pick, first_reason, false);
    }
    const auto it = st.entries.find(key);
    if (it != st.entries.end()) {
      for (int i = 0; i < ntun; ++i) {
        if (tun[i]->name == it->second.solver) {
          return make_choice(*tun[i], first_reason, true);
        }
      }
    }
    return make_choice(*pick, first_reason, false);
  }
  // Full mode: cache lookup, benchmark on miss, remember the winner. The
  // lock is held across the benchmark, which is safe because every bench
  // functor runs its kernels with threaded=false — a worker blocked here
  // never waits on the pool the bench would need.
  std::lock_guard<std::mutex> guard(st.mu);
  const bool first_seen = st.seen.insert(key).second;
  if (first_seen) ++st.problems;
  const auto it = st.entries.find(key);
  if (it != st.entries.end()) {
    for (int i = 0; i < ntun; ++i) {
      if (tun[i]->name == it->second.solver) {
        if (first_seen && st.loaded_keys.count(key) != 0) ++st.hits;
        return make_choice(*tun[i], first_reason, true);
      }
    }
    // A cached winner that no longer names an applicable tunable solver
    // (hand-edited or stale file): re-benchmark below.
  }
  double best = 1e300;
  const Solver* best_s = nullptr;
  for (int i = 0; i < ntun; ++i) {
    const double ms = tun[i]->bench(p);
    if (ms < best) {
      best = ms;
      best_s = tun[i];
    }
  }
  st.entries[key] = Entry{best_s->name, best};
  st.dirty = true;
  ++st.benchmarked;
  return make_choice(*best_s, first_reason, true);
}

bool Registry::load_cache(const std::string& path, std::string* warning) {
  std::ifstream is(path);
  if (!is) return false;  // missing file: fresh tune, not an error
  std::ostringstream buf;
  buf << is.rdbuf();
  const auto reject = [&](const std::string& why) {
    if (warning != nullptr) {
      *warning = "tuning cache '" + path + "' ignored: " + why;
    }
    return false;
  };
  jsonlite::JsonValue doc;
  try {
    doc = jsonlite::parse_json(buf.str());
  } catch (const std::exception& e) {
    return reject(std::string("parse error (") + e.what() + ")");
  }
  if (!doc.is_object()) return reject("root is not an object");
  const auto str_field = [&](const char* name) -> const std::string* {
    if (!doc.has(name) || !doc.at(name).is_string()) return nullptr;
    return &doc.at(name).str;
  };
  const std::string* schema = str_field("schema");
  if (schema == nullptr || *schema != "t2c.tune.v1") {
    return reject("unrecognized schema");
  }
  const std::string* cpu = str_field("cpu_model");
  const std::string* sha = str_field("git_sha");
  const std::string* isa = str_field("isa");
  if (cpu == nullptr || sha == nullptr || isa == nullptr) {
    return reject("missing header field");
  }
  const BuildInfo bi = build_info();
  const char* tier = util::isa_tier_name(util::cpu_isa_tier());
  if (*cpu != bi.cpu_model || *sha != bi.git_sha || *isa != tier) {
    return reject("host mismatch (cpu_model/git_sha/isa differ) — retune");
  }
  if (!doc.has("entries") || !doc.at("entries").is_array()) {
    return reject("missing entries array");
  }
  std::unordered_map<std::string, Entry> entries;
  for (const auto& e : doc.at("entries").array) {
    if (!e.is_object() || !e.has("key") || !e.at("key").is_string() ||
        !e.has("solver") || !e.at("solver").is_string() || !e.has("ms") ||
        !e.at("ms").is_number()) {
      return reject("malformed entry");
    }
    entries[e.at("key").str] = Entry{e.at("solver").str, e.at("ms").number};
  }
  State& st = *state_;
  {
    std::lock_guard<std::mutex> guard(st.mu);
    for (const auto& [k, v] : entries) {
      st.entries[k] = v;
      st.loaded_keys.insert(k);
    }
  }
  st.loaded.store(true, std::memory_order_release);
  return true;
}

bool Registry::save_cache(const std::string& path, std::string* warning) {
  State& st = *state_;
  std::lock_guard<std::mutex> guard(st.mu);
  if (!st.dirty) return true;
  std::vector<std::string> keys;
  keys.reserve(st.entries.size());
  for (const auto& [k, v] : st.entries) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  const BuildInfo bi = build_info();
  std::ostringstream os;
  os << "{\"schema\":\"t2c.tune.v1\",\"cpu_model\":\""
     << jsonlite::json_escape(bi.cpu_model) << "\",\"git_sha\":\""
     << jsonlite::json_escape(bi.git_sha) << "\",\"isa\":\""
     << util::isa_tier_name(util::cpu_isa_tier()) << "\",\"entries\":[";
  bool first = true;
  for (const auto& k : keys) {
    const Entry& e = st.entries[k];
    if (!first) os << ',';
    first = false;
    os << "{\"key\":\"" << jsonlite::json_escape(k) << "\",\"solver\":\""
       << jsonlite::json_escape(e.solver) << "\",\"ms\":"
       << jsonlite::json_num(e.ms) << '}';
  }
  os << "]}\n";
  std::error_code ec;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) {
    if (warning != nullptr) {
      *warning = "could not write tuning cache '" + path + "'";
    }
    return false;
  }
  out << os.str();
  if (!out) {
    if (warning != nullptr) {
      *warning = "short write to tuning cache '" + path + "'";
    }
    return false;
  }
  st.dirty = false;
  return true;
}

TuneStats Registry::stats() const {
  State& st = *state_;
  std::lock_guard<std::mutex> guard(st.mu);
  TuneStats t;
  t.problems = st.problems;
  t.hits = st.hits;
  t.benchmarked = st.benchmarked;
  return t;
}

void Registry::reset_tuning() {
  State& st = *state_;
  std::lock_guard<std::mutex> guard(st.mu);
  st.entries.clear();
  st.loaded_keys.clear();
  st.seen.clear();
  st.loaded.store(false, std::memory_order_release);
  st.dirty = false;
  st.problems = st.hits = st.benchmarked = 0;
}

std::string default_cache_path() {
  if (const char* e = std::getenv("T2C_TUNE_CACHE"); e != nullptr && *e != 0) {
    return e;
  }
  if (const char* x = std::getenv("XDG_CACHE_HOME"); x != nullptr && *x != 0) {
    return std::string(x) + "/t2c/tuning.json";
  }
  if (const char* h = std::getenv("HOME"); h != nullptr && *h != 0) {
    return std::string(h) + "/.cache/t2c/tuning.json";
  }
  return "t2c_tuning.json";
}

}  // namespace t2c::solver
