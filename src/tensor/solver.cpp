#include "tensor/solver.h"

#include "tensor/int8_gemm.h"

namespace t2c::solver {

const char* op_kind_name(OpKind op) {
  switch (op) {
    case OpKind::kConvInt: return "conv_int";
    case OpKind::kLinearInt: return "linear_int";
    case OpKind::kAttnInt: return "attn_int";
  }
  return "unknown";
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Registry::Registry() {
  const auto always = [](const Problem&) { return std::string(); };

  // Packed int8 family for conv and linear ops. List order is the
  // preference: fused beats unfused, and for convs the direct depthwise
  // kernel beats the GEMM. A conv with one output channel per group
  // (depthwise) is a 1-row GEMM per (image, group): the direct kernel
  // skips im2col and the 8x32 register tile entirely, and beat the GEMM
  // on every measured depthwise layer. Gates check the overflow proof,
  // then the shape, then epilogue availability.
  for (const OpKind op : {OpKind::kConvInt, OpKind::kLinearInt}) {
    for (const bool direct : {true, false}) {
      if (direct && op != OpKind::kConvInt) continue;
      for (const bool fuse : {true, false}) {
        Solver s;
        s.name = std::string(direct ? "dwconv_i8" : "gemm_i8") +
                 (fuse ? "_fused" : "");
        s.op = op;
        s.i8 = true;
        s.fuse = fuse;
        s.gates = std::string("i32 accum proof") +
                  (direct ? "; one output channel per group" : "") +
                  (fuse ? "; fusable requant" : "");
        s.applicable = [direct, fuse](const Problem& p) -> std::string {
          if (!i8::accum_fits_i32(p.k, p.a_max, p.w_max)) return "overflow";
          if (direct && p.m != 1) return "shape";
          if (fuse && !p.epilogue) {
            return p.epilogue_reason.empty() ? "consumer" : p.epilogue_reason;
          }
          return "";
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
  // dependent accumulator proof) and falls back to the i64 path there.
  {
    Solver s;
    s.name = "attn_i16";
    s.op = OpKind::kAttnInt;
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
    s.gates = "always (reference path)";
    s.applicable = always;
    solvers_.push_back(std::move(s));
  }
}

SolverChoice Registry::choose(const Problem& p) const {
  SolverChoice c;
  for (const Solver& s : solvers_) {
    if (s.op != p.op) continue;
    std::string why = s.applicable(p);
    if (why.empty()) {
      c.name = s.name;
      c.i8 = s.i8;
      c.fuse = s.fuse;
      return c;
    }
    // The first decline is what kernel() shows: "gemm_i64(overflow)".
    if (c.reason.empty()) c.reason = std::move(why);
  }
  return SolverChoice{};  // unreachable: every list ends in a fallback
}

}  // namespace t2c::solver
