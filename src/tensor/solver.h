// Kernel-solver registry with per-shape autotuning (DESIGN.md §3.12).
//
// Every kernel choice in the toolkit — naive vs tiled GEMM, the int8
// packed paths and their micro-kernel width, fused vs separate requant,
// the attention int16 fast path — used to be hand-wired at its call site.
// This MIOpen-style registry replaces all of that with one mechanism:
//
//   Problem  — the selection key: op kind, GEMM/conv geometry, operand
//              bounds from value-range analysis, epilogue availability,
//              ISA tier, and thread count. Everything a solver's
//              applicability or speed can depend on, nothing else.
//   Solver   — one concrete kernel strategy: an applicability predicate
//              (absorbing the scattered overflow / consumer / layout /
//              ISA gates) plus, for tunable solvers, a serial micro-
//              benchmark the autotuner can time.
//   Registry — ordered per-op solver lists. The list order IS the
//              heuristic: the first applicable solver reproduces the
//              pre-registry static choice exactly. With tuning enabled,
//              problems with >= 2 applicable *tunable* solvers are
//              resolved through the tuning cache instead (exact-match
//              key lookup; --tune full benchmarks misses and persists
//              the winner) — unless list order puts a heuristic-only
//              solver first, which then wins outright.
//
// Tuning never changes numerics: only solver sets whose members are
// bit-identical (exact integer arithmetic) are marked tunable. The f32
// solvers reorder float summation and the attention solvers re-gate per
// batch, so those stay heuristic-only; so does the direct depthwise conv,
// whose speed hinges on geometry the key does not carry.
//
// The tuning cache is a small JSON file keyed by CPU model + build SHA +
// ISA tier; any header mismatch is a keyed miss (the file is ignored,
// never trusted across machines or builds). A corrupt file degrades to
// the heuristic with a warning — it can never fail a run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tensor/int8_gemm.h"
#include "util/cpuinfo.h"

namespace t2c::solver {

/// Which selection list a problem consults. Raw GEMMs are selected per
/// call inside matmul.cpp; the *_int kinds are op-level choices made once
/// per deploy op by pass_select_solvers.
enum class OpKind {
  kGemmF32 = 0,   ///< raw float GEMM (training path, conv im2col)
  kGemmI64 = 1,   ///< raw int64 GEMM (deploy reference path)
  kConvInt = 2,   ///< IntConv2dOp kernel choice
  kLinearInt = 3, ///< IntLinearOp kernel choice
  kAttnInt = 4,   ///< IntAttentionOp kernel choice
};

const char* op_kind_name(OpKind op);

/// The selection key. Dynamic dimensions (batch-dependent rows, conv
/// output pixels) are encoded as -1 and render as '*' in the cache key;
/// the autotuner benchmarks them at a nominal size.
struct Problem {
  OpKind op = OpKind::kGemmF32;
  std::int64_t m = -1, n = -1, k = -1;
  std::int64_t groups = 1;
  /// Value-range bounds feeding the int8 overflow proof (0 = unbounded).
  std::int64_t a_max = 0, w_max = 0;
  /// True when the op's consumer offers a fusable requant epilogue;
  /// `epilogue_reason` carries the decline cause otherwise ("consumer",
  /// "shared", "layout"). The reason is display metadata — it is NOT
  /// part of the cache key.
  bool epilogue = false;
  std::string epilogue_reason;
  /// Op-specific static precondition (attention: the bound-independent
  /// int16 eligibility checks). Part of the key.
  bool aux_ok = false;
  util::IsaTier isa = util::cpu_isa_tier();
  int threads = 1;

  /// Canonical cache-key string, e.g.
  /// "conv_int|m16|n*|k144|g1|a127|w7|e1|x0|avx512|t4".
  std::string key() const;
};

/// The outcome of a selection, stored on deploy ops and rendered by
/// kernel()/plan dumps. `name` is the registry solver name (the one
/// source of truth for plan-dump/bench kernel tags); `reason` is the
/// first gate that declined a preferred solver ("overflow", "consumer",
/// ...), preserved so kernel() can render "gemm_i64(overflow)".
struct SolverChoice {
  std::string name;
  int variant = 0;  ///< Solver::variant of the pick
  bool i8 = false;
  bool fuse = false;
  i8::MicroKernel mk = i8::MicroKernel::kAuto;
  bool tuned = false;  ///< true when the pick came from the tuning cache
  std::string reason;
};

/// One concrete kernel strategy.
struct Solver {
  std::string name;  ///< stable tag, grammar [a-z0-9_]+ (json_check --bench)
  OpKind op = OpKind::kGemmF32;
  /// Strategy discriminator the call site dispatches on: raw GEMMs use
  /// 0 = tiled / 1 = naive; int8 GEMM solvers store the MicroKernel value
  /// (0 = kAuto for the direct depthwise solvers, which have none).
  int variant = 0;
  bool i8 = false;
  bool fuse = false;
  /// Tunable solvers are bit-identical alternatives the autotuner may
  /// reorder; non-tunable ones are only ever picked by list order.
  bool tunable = false;
  std::string gates;  ///< human-readable applicability summary (--list-solvers)
  /// Returns "" when applicable, else a short decline reason.
  std::function<std::string(const Problem&)> applicable;
  /// Serial micro-benchmark: median-free best-of-reps milliseconds for
  /// this solver on (a nominal instantiation of) the problem. Only set
  /// on tunable solvers. Must run kernels with threaded=false — the
  /// registry may hold its lock while timing.
  std::function<double(const Problem&)> bench;
};

/// off: static list order only, cache neither read nor written.
/// heuristic (default): static order, but exact-match hits from a loaded
///   cache override it — zero benchmarking, zero per-run overhead.
/// full: heuristic + benchmark cache misses and persist the winners.
enum class TuneMode { kOff = 0, kHeuristic = 1, kFull = 2 };

struct TuneStats {
  std::int64_t problems = 0;     ///< distinct tunable problems consulted
  std::int64_t hits = 0;         ///< resolved from a pre-loaded cache entry
  std::int64_t benchmarked = 0;  ///< resolved by running the autotuner
};

class Registry {
 public:
  static Registry& instance();

  /// Selects a solver for `p`: first-applicable heuristic, overridden by
  /// the tuning cache per the active TuneMode. Thread-safe; the
  /// heuristic/no-tunables path is lock-free.
  SolverChoice choose(const Problem& p);

  const std::vector<Solver>& solvers() const { return solvers_; }

  void set_mode(TuneMode m) { mode_ = m; }
  TuneMode mode() const { return mode_; }

  /// Loads a tuning cache. Returns true when entries were adopted; a
  /// missing file is a silent false, a corrupt/mismatched file is false
  /// with a human-readable explanation in *warning (heuristic fallback —
  /// never throws). Call before concurrent inference starts.
  bool load_cache(const std::string& path, std::string* warning);

  /// Persists entries gathered by --tune full to `path` (creating parent
  /// directories). No-op unless new entries were benchmarked. Returns
  /// false with *warning set on I/O failure.
  bool save_cache(const std::string& path, std::string* warning);

  TuneStats stats() const;

  /// Drops loaded/benchmarked entries and zeroes stats (test hook; also
  /// lets one process retune after a cap change).
  void reset_tuning();

 private:
  Registry();

  struct Entry {
    std::string solver;
    double ms = 0.0;
  };

  const Solver* find(OpKind op, const std::string& name) const;
  SolverChoice make_choice(const Solver& s, const std::string& reason,
                           bool tuned) const;

  std::vector<Solver> solvers_;
  TuneMode mode_ = TuneMode::kHeuristic;

  struct State;      // entries + stats behind a mutex (solver.cpp)
  State* state_;     // never freed: registry lives for the process
};

/// `$T2C_TUNE_CACHE`, else `$XDG_CACHE_HOME/t2c/tuning.json`, else
/// `~/.cache/t2c/tuning.json` (falling back to "t2c_tuning.json" in the
/// working directory when no home directory is resolvable).
std::string default_cache_path();

}  // namespace t2c::solver
