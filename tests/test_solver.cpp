// Kernel-solver registry tests (DESIGN.md §3.12).
//
// Covers the registry's choice (first applicable solver in list order),
// the gate-order contract (semantic decline reasons are never masked by
// ISA), and the headline bit-identity guarantee: integer outputs are
// identical at any thread count, and across every forced int8
// micro-kernel width — for the batch-folded conv and the direct depthwise
// kernel too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/parallel.h"
#include "deploy/int_ops.h"
#include "deploy/passes.h"
#include "tensor/conv_ops.h"
#include "tensor/int8_gemm.h"
#include "tensor/solver.h"
#include "util/cpuinfo.h"

namespace t2c {
namespace {

/// Restores the pool size on scope exit so tests can't leak a setting.
struct ThreadGuard {
  int saved = par::max_threads();
  ~ThreadGuard() { par::set_max_threads(saved); }
};

/// Lifts the ISA cap back to the top rung on scope exit.
struct IsaCapGuard {
  ~IsaCapGuard() { util::set_isa_tier_cap(util::kTopIsaTier); }
};

/// Every int16 micro-kernel a GEMM can run: each forced width uncapped,
/// and kAvx512 both at the avx512 rung (vpmaddwd + vpaddd) and at the
/// avx512vnni rung (vpdpwssd; the avx512 kernel again on a host without
/// VNNI, which IsaCapNamesParseToTheirRungs reports as a skip).
struct KernelRun {
  util::IsaTier cap;
  i8::MicroKernel mk;
};
constexpr KernelRun kKernelRuns[] = {
    {util::kTopIsaTier, i8::MicroKernel::kScalar},
    {util::kTopIsaTier, i8::MicroKernel::kAvx2},
    {util::IsaTier::kAvx512, i8::MicroKernel::kAvx512},
    {util::IsaTier::kAvx512Vnni, i8::MicroKernel::kAvx512},
    {util::kTopIsaTier, i8::MicroKernel::kAuto},
};

std::string describe(const KernelRun& run) {
  return "mk " + std::to_string(static_cast<int>(run.mk)) + " cap " +
         util::isa_tier_name(run.cap);
}

/// A linear_int problem deep enough to be interesting but provably safe
/// for the whole int8 family (k * a_max * w_max far below 2^31).
solver::Problem safe_linear(bool epilogue) {
  solver::Problem p;
  p.op = solver::OpKind::kLinearInt;
  p.k = 32;
  p.a_max = 127;
  p.w_max = 127;
  p.epilogue = epilogue;
  if (!epilogue) p.epilogue_reason = "consumer";
  return p;
}

// ---- registry choice ----

TEST(SolverRegistryTest, EveryOpListEndsInAnUnconditionalFallback) {
  const auto& solvers = solver::Registry::instance().solvers();
  for (const solver::OpKind op :
       {solver::OpKind::kConvInt, solver::OpKind::kLinearInt,
        solver::OpKind::kAttnInt}) {
    const solver::Solver* last = nullptr;
    for (const auto& s : solvers) {
      if (s.op == op) last = &s;
    }
    ASSERT_NE(last, nullptr) << solver::op_kind_name(op);
    solver::Problem hostile;  // unbounded operands, no epilogue, no aux
    hostile.op = op;
    hostile.k = 1 << 20;
    EXPECT_EQ(last->applicable(hostile), "")
        << last->name << " must accept every problem";
  }
}

TEST(SolverRegistryTest, SolverNamesFollowTheKernelTagGrammar) {
  for (const auto& s : solver::Registry::instance().solvers()) {
    EXPECT_FALSE(s.name.empty());
    for (const char c : s.name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << s.name;
    }
  }
}

TEST(SolverRegistryTest, HeuristicFollowsStaticListOrder) {
  const auto& reg = solver::Registry::instance();

  // Fused int8 with the widest micro-kernel this host supports.
  const solver::SolverChoice fused = reg.choose(safe_linear(true));
  EXPECT_TRUE(fused.i8);
  EXPECT_TRUE(fused.fuse);
  EXPECT_EQ(fused.name.rfind("gemm_i8_fused_", 0), 0u) << fused.name;

  // No epilogue: the fused family declines with the carried reason and the
  // unfused family is next in line.
  const solver::SolverChoice unfused = reg.choose(safe_linear(false));
  EXPECT_TRUE(unfused.i8);
  EXPECT_FALSE(unfused.fuse);
  EXPECT_EQ(unfused.name.rfind("gemm_i8_", 0), 0u) << unfused.name;
  EXPECT_EQ(unfused.reason, "consumer");
}

TEST(SolverRegistryTest, OverflowReasonSurvivesToTheFallback) {
  const auto& reg = solver::Registry::instance();
  solver::Problem p = safe_linear(true);
  p.k = 1 << 20;  // 2^20 * 127 * 127 >> 2^31: the accumulation proof fails
  const solver::SolverChoice c = reg.choose(p);
  EXPECT_EQ(c.name, "gemm_i64");
  EXPECT_FALSE(c.i8);
  EXPECT_EQ(c.reason, "overflow");
}

TEST(SolverRegistryTest, SemanticGateIsNeverMaskedByIsa) {
  const auto& reg = solver::Registry::instance();
  // Capped to the generic tier the AVX solvers all decline with "isa" —
  // but an overflow must still be reported as "overflow", and the scalar
  // solver (no ISA gate) must keep the int8 family reachable.
  const IsaCapGuard cap_guard;
  util::set_isa_tier_cap(util::IsaTier::kGeneric);
  solver::Problem ok = safe_linear(true);
  ok.isa = util::cpu_isa_tier();
  const solver::SolverChoice scalar = reg.choose(ok);
  EXPECT_EQ(scalar.name, "gemm_i8_fused_scalar");
  solver::Problem bad = ok;
  bad.k = 1 << 20;
  EXPECT_EQ(reg.choose(bad).reason, "overflow");
}

TEST(SolverRegistryTest, IsaCapNamesParseToTheirRungs) {
  const IsaCapGuard cap_guard;
  for (const util::IsaTier tier :
       {util::IsaTier::kGeneric, util::IsaTier::kAvx2, util::IsaTier::kAvx512,
        util::IsaTier::kAvx512Vnni}) {
    EXPECT_EQ(util::isa_tier_cap_from_name(util::isa_tier_name(tier)), tier)
        << util::isa_tier_name(tier);
  }
  EXPECT_STREQ(util::isa_tier_name(util::kTopIsaTier), "avx512vnni");
  EXPECT_EQ(util::isa_tier_cap_from_name("scalar"), util::IsaTier::kGeneric);
  EXPECT_EQ(util::isa_tier_cap_from_name("bogus"), util::kTopIsaTier);
  // The VNNI kernel keeps the avx512 solvers' names and gates: the rung
  // changes which kernel gemm_i8_*_avx512 runs, not which solver wins.
  solver::Problem p = safe_linear(true);
  p.isa = util::IsaTier::kAvx512Vnni;
  EXPECT_EQ(solver::Registry::instance().choose(p).name,
            "gemm_i8_fused_avx512");
  util::set_isa_tier_cap(util::IsaTier::kAvx512Vnni);
  const util::IsaTier got = util::cpu_isa_tier();
  if (got != util::IsaTier::kAvx512Vnni) {
    GTEST_SKIP() << "no AVX512_VNNI on this host: the avx512vnni cap runs at "
                 << util::isa_tier_name(got);
  }
  EXPECT_EQ(util::isa_description(), "x86-64-v4 (avx512vnni)");
}

TEST(SolverRegistryTest, DepthwiseSolversPrecedeTheGemmFamily) {
  const auto& reg = solver::Registry::instance();
  solver::Problem dw;
  dw.op = solver::OpKind::kConvInt;
  dw.m = 1;  // one output channel per group
  dw.k = 9;
  dw.a_max = 127;
  dw.w_max = 127;
  dw.epilogue = true;
  const solver::SolverChoice c = reg.choose(dw);
  EXPECT_EQ(c.name, "dwconv_i8_fused");
  EXPECT_TRUE(c.i8);  // counts as a narrow kernel in solver.narrow_share
  EXPECT_TRUE(c.fuse);
  solver::Problem unfused = dw;
  unfused.epilogue = false;
  unfused.epilogue_reason = "consumer";
  EXPECT_EQ(reg.choose(unfused).name, "dwconv_i8");
  EXPECT_EQ(reg.choose(unfused).reason, "consumer");
  // More than one output channel per group: the GEMM family takes over.
  solver::Problem dense = dw;
  dense.m = 16;
  EXPECT_EQ(reg.choose(dense).name.rfind("gemm_i8_fused_", 0), 0u);
  // The overflow proof gates the direct kernel like the GEMMs.
  solver::Problem deep = dw;
  deep.a_max = deep.w_max = i8::kOperandMax;
  EXPECT_EQ(reg.choose(deep).name, "gemm_i64");
  EXPECT_EQ(reg.choose(deep).reason, "overflow");
}

TEST(SolverRegistryTest, AttentionGatesOnAuxAndBound) {
  const auto& reg = solver::Registry::instance();
  solver::Problem p;
  p.op = solver::OpKind::kAttnInt;
  p.k = 64;
  p.w_max = 127;
  p.aux_ok = false;
  EXPECT_EQ(reg.choose(p).name, "attn_i64");
  EXPECT_EQ(reg.choose(p).reason, "static");
  p.aux_ok = true;
  EXPECT_EQ(reg.choose(p).reason, "bound");  // a_max still 0
  p.a_max = 127;
  const solver::SolverChoice c = reg.choose(p);
  EXPECT_EQ(c.name, "attn_i16");
  EXPECT_TRUE(c.i8);
}

// ---- bit identity ----

std::unique_ptr<MulQuantOp> scalar_mq() {
  return std::make_unique<MulQuantOp>(std::vector<std::int64_t>{3},
                                      std::vector<std::int64_t>{5}, 12, -127,
                                      127, MqLayout::kPerTensor);
}

/// Input -> IntLinear([4 x 64], mixed weights) -> per-tensor MulQuant: a
/// graph the fused int8 family accepts.
DeployModel int8_graph() {
  DeployModel dm;
  ITensor w({4, 64});
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    w[i] = (i * 37 % 255) - 127;
  }
  auto lin = std::make_unique<IntLinearOp>(std::move(w));
  lin->inputs = {0};
  const int v1 = dm.add_op(std::move(lin));
  auto mq = scalar_mq();
  mq->inputs = {v1};
  dm.set_output(dm.add_op(std::move(mq)));
  return dm;
}

ITensor run_graph(DeployModel& dm, const ITensor& x) {
  (void)pass_select_solvers(dm);
  return dm.run_int(x);
}

TEST(SolverBitIdentity, ThreadCountsAgreeBitForBit) {
  ThreadGuard tguard;
  ITensor x({3, 64});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = (i * 13 % 255) - 127;

  // Reference: single thread.
  par::set_max_threads(1);
  DeployModel ref = int8_graph();
  const ITensor want = run_graph(ref, x);

  for (const int threads : {1, 4, 16}) {
    par::set_max_threads(threads);
    DeployModel dm = int8_graph();
    const ITensor got = run_graph(dm, x);
    ASSERT_TRUE(got.same_shape(want));
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "threads " << threads << " element " << i;
    }
  }
}

TEST(SolverBitIdentity, ForcedMicroKernelWidthsAgreeBitForBit) {
  // m = 7 is one partial row block; 17 is two full blocks and a 1-row one.
  const IsaCapGuard cap_guard;
  for (const std::int64_t m : {7, 17}) {
    const std::int64_t n = 33, k = 65;
    std::vector<std::int64_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int64_t> w(static_cast<std::size_t>(k * n));
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<std::int64_t>(i * 31 % 255) - 127;
    }
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = static_cast<std::int64_t>(i * 17 % 255) - 127;
    }
    const auto pb = i8::pack_b(w.data(), k, n, /*trans_b=*/false);
    const std::int64_t mul[1] = {16};
    const std::int64_t bias[1] = {7};
    i8::Epilogue ep;
    ep.mode = i8::Epilogue::Mode::kScalar;
    ep.mul = mul;
    ep.bias = bias;
    ep.frac0 = 8;
    ep.lo = -127;
    ep.hi = 127;
    std::vector<std::int64_t> want(static_cast<std::size_t>(m * n));
    i8::gemm_b_packed(a.data(), *pb, want.data(), m, ep, /*threaded=*/false,
                      i8::MicroKernel::kScalar);
    for (const KernelRun& run : kKernelRuns) {
      util::set_isa_tier_cap(run.cap);
      std::vector<std::int64_t> got(static_cast<std::size_t>(m * n));
      i8::gemm_b_packed(a.data(), *pb, got.data(), m, ep, /*threaded=*/false,
                        run.mk);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << describe(run) << " m " << m << " element " << i;
      }
    }
  }
}

TEST(SolverBitIdentity, ConvKernelsMatchI64ForEveryMicroKernel) {
  // Raw accumulators (no epilogue) of the batch-folded packed conv, under
  // every forced micro-kernel width, and of the direct depthwise kernel,
  // against iconv2d_forward. 3 images of 3x5 fold 45 columns, so the
  // second panel starts inside the third image.
  ThreadGuard tguard;
  const IsaCapGuard cap_guard;
  struct Geo {
    std::int64_t n, ic, oc, h, w;
    int k, stride, pad, groups;
  };
  const Geo geos[] = {
      {3, 4, 6, 3, 5, 3, 1, 1, 1},    {3, 4, 6, 3, 5, 1, 2, 0, 2},
      {8, 5, 9, 2, 2, 3, 1, 1, 1},    {8, 8, 8, 1, 1, 1, 1, 0, 1},
      {2, 3, 5, 16, 16, 5, 2, 2, 1},  {3, 6, 6, 3, 5, 3, 2, 1, 6},
      {8, 4, 4, 16, 16, 3, 1, 1, 4},  {3, 8, 4, 3, 5, 5, 1, 2, 4},
  };
  for (const Geo& g : geos) {
    ConvSpec s;
    s.in_channels = g.ic;
    s.out_channels = g.oc;
    s.kernel = g.k;
    s.stride = g.stride;
    s.padding = g.pad;
    s.groups = g.groups;
    const std::int64_t icg = g.ic / g.groups, ocg = g.oc / g.groups;
    const std::int64_t taps = icg * g.k * g.k;
    ITensor w({g.oc, icg, g.k, g.k});
    for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = (i * 37 % 255) - 127;
    ITensor x({g.n, g.ic, g.h, g.w});
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = (i * 13 % 255) - 127;
    par::set_max_threads(1);
    const ITensor want = iconv2d_forward(x, w, nullptr, s);
    ITensor got(want.shape());
    const auto expect_same = [&](const std::string& what) {
      for (std::int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got[i], want[i]) << what << " element " << i;
      }
    };
    const std::string geo = "k" + std::to_string(g.k) + " s" +
                            std::to_string(g.stride) + " g" +
                            std::to_string(g.groups);
    const auto pa = i8::pack_a(w.data(), ocg, taps, g.groups);
    for (const int threads : {1, 4}) {
      par::set_max_threads(threads);
      for (const KernelRun& run : kKernelRuns) {
        util::set_isa_tier_cap(run.cap);
        i8::conv_packed(x.data(), g.n, g.h, g.w, s, *pa, got.data(),
                        i8::Epilogue{}, /*threaded=*/true, run.mk);
        expect_same(geo + " packed " + describe(run) + " @" +
                    std::to_string(threads));
      }
      util::set_isa_tier_cap(util::kTopIsaTier);
      if (ocg == 1) {
        const auto pw = i8::pack_dw(w.data(), g.oc, taps);
        i8::dwconv(x.data(), g.n, g.h, g.w, s, *pw, got.data(),
                   i8::Epilogue{});
        expect_same(geo + " direct @" + std::to_string(threads));
      }
    }
  }
}

}  // namespace
}  // namespace t2c
