// Kernel-solver registry (DESIGN.md §3.12).
//
// Every kernel choice a deploy op makes — the packed int8 GEMM, the
// direct depthwise conv, fused vs separate requant, the attention int16
// fast path — goes through one MIOpen-style registry:
//
//   Problem  — what a choice depends on: op kind, GEMM geometry, operand
//              bounds from value-range analysis and epilogue availability.
//   Solver   — one kernel strategy with its applicability predicate (the
//              overflow / shape / consumer / layout gates).
//   Registry — ordered per-op solver lists. The first applicable solver
//              wins: list order is the only kernel choice.
//
// No gate reads the ISA. A solver names a strategy, and each int8 kernel
// call picks its micro-kernel from util::cpu_isa_tier(), so a plan is the
// same on every host and at every T2C_ISA cap.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace t2c::solver {

/// Which selection list a problem consults. Each is an op-level choice
/// made once per deploy op by pass_select_solvers.
enum class OpKind {
  kConvInt,    ///< IntConv2dOp kernel choice
  kLinearInt,  ///< IntLinearOp kernel choice
  kAttnInt,    ///< IntAttentionOp kernel choice
};

const char* op_kind_name(OpKind op);

/// Everything a solver gate reads.
struct Problem {
  OpKind op = OpKind::kConvInt;
  /// GEMM rows per group (conv: output channels per group, so 1 for a
  /// depthwise conv; -1 when batch dependent) and accumulation depth.
  std::int64_t m = -1, k = -1;
  /// Value-range bounds feeding the int8 overflow proof (0 = unbounded).
  std::int64_t a_max = 0, w_max = 0;
  /// True when the op's consumer offers a fusable requant epilogue;
  /// `epilogue_reason` carries the decline cause otherwise ("consumer",
  /// "shared", "layout").
  bool epilogue = false;
  std::string epilogue_reason;
  /// Op-specific static precondition (attention: the bound-independent
  /// int16 eligibility checks).
  bool aux_ok = false;
};

/// The outcome of a selection, stored on deploy ops and rendered by
/// kernel()/plan dumps. `name` is the registry solver name (the one
/// source of truth for plan-dump/bench kernel tags); `reason` is the
/// first gate that declined a preferred solver ("overflow", "consumer",
/// ...), preserved so kernel() can render "gemm_i64(overflow)".
struct SolverChoice {
  std::string name;
  bool i8 = false;
  bool fuse = false;
  std::string reason;
};

/// One kernel strategy.
struct Solver {
  std::string name;  ///< stable tag, grammar [a-z0-9_]+ (json_check --bench)
  OpKind op = OpKind::kConvInt;
  bool i8 = false;
  bool fuse = false;
  std::string gates;  ///< human-readable applicability summary (--list-solvers)
  /// Returns "" when applicable, else a short decline reason.
  std::function<std::string(const Problem&)> applicable;
};

class Registry {
 public:
  static Registry& instance();

  /// The first solver in `p.op`'s list that accepts `p`, carrying the
  /// first decline reason met ahead of it. Thread-safe: the lists never
  /// change after construction.
  SolverChoice choose(const Problem& p) const;

  const std::vector<Solver>& solvers() const { return solvers_; }

 private:
  Registry();

  std::vector<Solver> solvers_;
};

}  // namespace t2c::solver
