#include "tensor/solver.h"

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
  using util::IsaTier;
  const auto always = [](const Problem&) { return std::string(); };

  // Packed int8 family for conv and linear ops. List order is the
  // preference: fused beats unfused, wider micro-kernels beat narrower.
  // Gates check semantics first (overflow proof, then epilogue
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
    // A conv with one output channel per group (depthwise) is a 1-row GEMM
    // per (image, group): the direct kernel skips im2col and the 8x32
    // register tile entirely, and beat the GEMM on every measured
    // depthwise layer, so it leads the conv list.
    for (const bool fuse : {true, false}) {
      if (op != OpKind::kConvInt) continue;
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
        s.i8 = true;
        s.fuse = fuse;
        s.mk = v.mk;
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
      c.mk = s.mk;
      return c;
    }
    // The first decline is what kernel() shows: "gemm_i64(overflow)".
    if (c.reason.empty()) c.reason = std::move(why);
  }
  return SolverChoice{};  // unreachable: every list ends in a fallback
}

}  // namespace t2c::solver
