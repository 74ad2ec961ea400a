// Kernel-solver registry tests (DESIGN.md §3.12).
//
// Covers the registry's choice (first applicable solver in list order),
// its independence from the ISA (the same choice and decline reason at
// every cap), and the headline bit-identity guarantee: integer outputs are
// identical at any thread count, and under every ISA cap, whose int8
// micro-kernels differ — for the batch-folded conv and the direct
// depthwise kernel too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/parallel.h"
#include "deploy/int_ops.h"
#include "deploy/passes.h"
#include "tensor/conv_ops.h"
#include "tensor/int8_gemm.h"
#include "tensor/solver.h"
#include "test_util.h"
#include "util/cpuinfo.h"

namespace t2c {
namespace {

/// Restores the pool size on scope exit so tests can't leak a setting.
struct ThreadGuard {
  int saved = par::max_threads();
  ~ThreadGuard() { par::set_max_threads(saved); }
};

using testing::IsaCapGuard;
using testing::iconv_scanned;

/// Every ISA cap, each with its own int16 micro-kernel: scalar, vpmaddwd
/// on ymm, vpmaddwd + vpaddd on zmm, vpdpwssd. A cap above the host's
/// rung runs the host's top kernel again (IsaCapNamesParseToTheirRungs
/// reports a host without VNNI as a skip).
constexpr util::IsaTier kCaps[] = {util::IsaTier::kGeneric,
                                   util::IsaTier::kAvx2,
                                   util::IsaTier::kAvx512,
                                   util::IsaTier::kAvx512Vnni};

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

  // Fused int8 first.
  const solver::SolverChoice fused = reg.choose(safe_linear(true));
  EXPECT_TRUE(fused.i8);
  EXPECT_TRUE(fused.fuse);
  EXPECT_EQ(fused.name, "gemm_i8_fused");

  // No epilogue: the fused family declines with the carried reason and the
  // unfused family is next in line.
  const solver::SolverChoice unfused = reg.choose(safe_linear(false));
  EXPECT_TRUE(unfused.i8);
  EXPECT_FALSE(unfused.fuse);
  EXPECT_EQ(unfused.name, "gemm_i8");
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

TEST(SolverRegistryTest, ChoiceIsTheSameAtEveryIsaCap) {
  // No gate reads the ISA: the int8 family wins under every cap, and a
  // problem too deep for the overflow proof declines with "overflow".
  const auto& reg = solver::Registry::instance();
  const IsaCapGuard cap_guard;
  for (const util::IsaTier cap : kCaps) {
    util::set_isa_tier_cap(cap);
    const solver::Problem ok = safe_linear(true);
    EXPECT_EQ(reg.choose(ok).name, "gemm_i8_fused") << util::isa_tier_name(cap);
    solver::Problem bad = ok;
    bad.k = 1 << 20;
    const solver::SolverChoice c = reg.choose(bad);
    EXPECT_EQ(c.name, "gemm_i64") << util::isa_tier_name(cap);
    EXPECT_EQ(c.reason, "overflow") << util::isa_tier_name(cap);
  }
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
  EXPECT_EQ(reg.choose(dense).name, "gemm_i8_fused");
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

TEST(SolverBitIdentity, MicroKernelsAgreeBitForBitAtEveryIsaCap) {
  // Each cap runs its own micro-kernel, checked against the generic cap's
  // scalar one. m = 7 is one partial row block; 17 is two full blocks and
  // a 1-row one.
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
    util::set_isa_tier_cap(util::IsaTier::kGeneric);
    std::vector<std::int64_t> want(static_cast<std::size_t>(m * n));
    i8::gemm_b_packed(a.data(), *pb, want.data(), m, ep, /*threaded=*/false);
    for (const util::IsaTier cap : kCaps) {
      util::set_isa_tier_cap(cap);
      std::vector<std::int64_t> got(static_cast<std::size_t>(m * n));
      i8::gemm_b_packed(a.data(), *pb, got.data(), m, ep, /*threaded=*/false);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "cap " << util::isa_tier_name(cap)
                                   << " m " << m << " element " << i;
      }
    }
  }
}

TEST(SolverBitIdentity, ConvKernelsMatchI64AtEveryIsaCap) {
  // Raw accumulators (no epilogue) of the batch-folded packed conv and of
  // the direct depthwise kernel, under every ISA cap (each with its own
  // panel fill and micro-kernel), against iconv2d_forward. 3 images of 3x5
  // fold 45 columns, so the second panel starts inside the third image.
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
    const ITensor want = iconv_scanned(x, w, s);
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
    const auto pw = ocg == 1 ? i8::pack_dw(w.data(), g.oc, taps) : nullptr;
    for (const int threads : {1, 4}) {
      par::set_max_threads(threads);
      for (const util::IsaTier cap : kCaps) {
        util::set_isa_tier_cap(cap);
        const std::string at = std::string(" cap ") +
                               util::isa_tier_name(cap) + " @" +
                               std::to_string(threads);
        i8::conv_packed(x.data(), g.n, g.h, g.w, s, *pa, got.data(),
                        i8::Epilogue{}, /*threaded=*/true);
        expect_same(geo + " packed" + at);
        if (pw != nullptr) {
          i8::dwconv(x.data(), g.n, g.h, g.w, s, *pw, got.data(),
                     i8::Epilogue{});
          expect_same(geo + " direct" + at);
        }
      }
    }
  }
}

}  // namespace
}  // namespace t2c
