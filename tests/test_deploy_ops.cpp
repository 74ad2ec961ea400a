// Integer deploy-op tests: each op against a float reference, LUT error
// bounds, integer LayerNorm in both statistics modes, and the SSA graph
// runner (DeployModel).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "alloc_count.h"
#include "core/parallel.h"
#include "deploy/int_ops.h"
#include "deploy/vit_ops.h"
#include "nn/activations.h"
#include "obs/metrics.h"
#include "tensor/elementwise.h"
#include "test_util.h"
#include "util/cpuinfo.h"

namespace t2c {
namespace {

ITensor random_itensor(Shape shape, int lo, int hi, std::uint64_t seed) {
  ITensor t(std::move(shape));
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.randint(lo, hi);
  return t;
}

using testing::IsaCapGuard;

/// `op` on `x` at the generic rung (the scalar forms) and at the host's top
/// rung (the vector forms, where the host has them).
std::pair<ITensor, ITensor> generic_and_top(const DeployOp& op,
                                            const ITensor& x) {
  const IsaCapGuard guard;
  util::set_isa_tier_cap(util::IsaTier::kGeneric);
  ITensor generic = op.run({&x});
  util::set_isa_tier_cap(util::kTopIsaTier);
  return {std::move(generic), op.run({&x})};
}

void expect_same(const ITensor& got, const ITensor& want,
                 const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " element " << i;
  }
}

ITensor rows_tensor(const std::vector<std::vector<std::int64_t>>& rows) {
  const auto d = static_cast<std::int64_t>(rows.front().size());
  ITensor t({static_cast<std::int64_t>(rows.size()), d});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(),
              t.data() + static_cast<std::int64_t>(r) * d);
  }
  return t;
}

using i128 = __int128;

i128 isqrt_wide(i128 v) {
  i128 lo = 0, hi = i128{1} << 63;
  while (lo < hi) {
    const i128 mid = (lo + hi + 1) / 2;
    if (mid * mid <= v) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// IntLayerNormOp's instant-statistics row in 128-bit arithmetic, with
/// the integer divide: a row whose int64 arithmetic stays in range must
/// match it exactly.
std::vector<std::int64_t> layernorm_wide(const std::int64_t* x,
                                         const std::vector<std::int64_t>& g,
                                         const std::vector<std::int64_t>& b,
                                         int f, std::int64_t lo,
                                         std::int64_t hi) {
  const auto d = static_cast<std::int64_t>(g.size());
  i128 sum = 0;
  for (std::int64_t i = 0; i < d; ++i) sum += x[i];
  const i128 mean = (2 * sum + d) / (2 * d);
  i128 var_sum = 0;
  for (std::int64_t i = 0; i < d; ++i) var_sum += (x[i] - mean) * (x[i] - mean);
  const i128 sq =
      std::max<i128>(1, isqrt_wide(var_sum / d * (i128{1} << 20)));
  std::vector<std::int64_t> y(static_cast<std::size_t>(d));
  for (std::int64_t i = 0; i < d; ++i) {
    const auto e = static_cast<std::size_t>(i);
    const i128 xhat = (x[i] - mean) * (i128{1} << (f + 10)) / sq;
    const i128 v =
        (g[e] * xhat + b[e] * (i128{1} << f) + (i128{1} << (2 * f - 1))) >>
        (2 * f);
    y[e] = static_cast<std::int64_t>(std::clamp<i128>(v, lo, hi));
  }
  return y;
}

TEST(MulQuantOpTest, LayoutsApplyPerEntry) {
  // kChannelNCHW: channel 1 gets a different multiplier.
  MulQuantOp mq({2048, 4096}, {0, 10}, 12, -1000, 1000,
                MqLayout::kChannelNCHW);
  ITensor x({1, 2, 1, 1}, 100);
  std::vector<const ITensor*> ins{&x};
  ITensor y = mq.run(ins);
  EXPECT_EQ(y[0], 50);    // 0.5 * 100
  EXPECT_EQ(y[1], 110);   // 1.0 * (100 + 10)
}

TEST(MulQuantOpTest, ClampsToRange) {
  MulQuantOp mq({4096}, {0}, 12, 0, 127, MqLayout::kPerTensor);
  ITensor x = ITensor::from({3}, {-5, 50, 500});
  std::vector<const ITensor*> ins{&x};
  ITensor y = mq.run(ins);
  EXPECT_EQ(y[0], 0);
  EXPECT_EQ(y[1], 50);
  EXPECT_EQ(y[2], 127);
}

TEST(MulQuantOpTest, RoundsToNearest) {
  MulQuantOp mq({2048}, {0}, 12, -1000, 1000, MqLayout::kPerTensor);  // x/2
  ITensor x = ITensor::from({2}, {3, 5});
  std::vector<const ITensor*> ins{&x};
  ITensor y = mq.run(ins);
  EXPECT_EQ(y[0], 2);  // 1.5 -> 2 (round half up)
  EXPECT_EQ(y[1], 3);  // 2.5 -> 3
}

constexpr util::IsaTier kIsaCaps[] = {util::IsaTier::kGeneric,
                                      util::IsaTier::kAvx2,
                                      util::IsaTier::kAvx512,
                                      util::IsaTier::kAvx512Vnni};

/// What `run` adds to the counter `name` (metrics must be on).
template <typename Run>
std::int64_t sat_delta(const std::string& name, const Run& run) {
  obs::Counter& c = obs::metrics().counter(name);
  const std::int64_t before = c.value();
  run();
  return c.value() - before;
}

/// MulQuantOp's requant of x with one entry's constants in 128-bit
/// arithmetic, and whether it counts as a clip (a zero floor does not).
std::pair<std::int64_t, bool> mulquant_wide(std::int64_t x, std::int64_t mul,
                                            std::int64_t bias, int frac,
                                            int bias_frac, std::int64_t lo,
                                            std::int64_t hi) {
  const int f = frac + bias_frac;
  const i128 half = f > 0 ? i128{1} << (f - 1) : 0;
  const i128 y = (mul * (i128{x} * (i128{1} << bias_frac) + bias) + half) >> f;
  return {static_cast<std::int64_t>(std::clamp<i128>(y, lo, hi)),
          y > hi || (lo != 0 && y < lo)};
}

TEST(MulQuantOpTest, LayoutsMatchWideReferenceAtEveryRung) {
  struct Case {
    Shape shape;
    MqLayout layout;
  };
  // Channel-NCHW at batch 2, whose 4-thread chunks straddle the images
  // (entry p % C), and at 1x1 planes (every chunk spans images);
  // last-dim with d = 13 (an 8-lane tail), and with d = 64 over 1000 rows,
  // which a chunk walks in several 64-row blocks and a short last one;
  // per-tensor over 3 chunks.
  const Case cases[] = {{{2, 24, 15, 20}, MqLayout::kChannelNCHW},
                        {{5, 3, 1, 1}, MqLayout::kChannelNCHW},
                        {{4, 200, 13}, MqLayout::kLastDim},
                        {{1000, 64}, MqLayout::kLastDim},
                        {{3, 5000}, MqLayout::kPerTensor}};
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const IsaCapGuard guard;
  const int saved = par::max_threads();
  std::int64_t clips = 0;
  for (const Case& c : cases) {
    const ITensor x = random_itensor(c.shape, -60000, 60000, 31);
    const std::int64_t entries =
        c.layout == MqLayout::kPerTensor
            ? 1
            : c.shape[c.layout == MqLayout::kLastDim ? c.shape.size() - 1 : 1];
    const auto entry_of = [&](std::int64_t i) -> std::size_t {
      if (c.layout == MqLayout::kPerTensor) return 0;
      const std::int64_t plane = c.shape.size() == 4 ? c.shape[2] * c.shape[3]
                                                     : 1;
      return static_cast<std::size_t>((i / plane) % entries);
    };
    Rng rng(static_cast<std::uint64_t>(entries));
    std::vector<std::int64_t> mul, bias;
    std::vector<int> frac;
    for (std::int64_t e = 0; e < entries; ++e) {
      frac.push_back(14 + static_cast<int>(e % 5));  // per-entry shifts
      const std::int64_t m = (std::int64_t{1} << frac.back()) / 300;
      mul.push_back(rng.randint(-m / 4, m));
      bias.push_back(rng.randint(-2000, 2000));
    }
    for (const int bias_frac : {0, 5}) {
      for (const std::int64_t lo : {std::int64_t{0}, std::int64_t{-127}}) {
        MulQuantOp mq(mul, bias, frac, lo, 127, c.layout, bias_frac);
        mq.label = "wide";
        std::vector<std::int64_t> want(static_cast<std::size_t>(x.numel()));
        std::int64_t want_sat = 0;
        for (std::int64_t i = 0; i < x.numel(); ++i) {
          const std::size_t e = entry_of(i);
          const auto [y, clip] = mulquant_wide(x[i], mul[e], bias[e], frac[e],
                                               bias_frac, lo, 127);
          want[static_cast<std::size_t>(i)] = y;
          want_sat += clip ? 1 : 0;
        }
        clips += want_sat;
        const ITensor ref = ITensor::from(x.shape(), want);
        for (const util::IsaTier cap : kIsaCaps) {
          util::set_isa_tier_cap(cap);
          for (const int threads : {1, 4}) {
            par::set_max_threads(threads);
            const std::string at = shape_str(c.shape) + " bias_frac " +
                                   std::to_string(bias_frac) + " lo " +
                                   std::to_string(lo) + " cap " +
                                   util::isa_tier_name(cap) + " @" +
                                   std::to_string(threads);
            ITensor out;
            EXPECT_EQ(sat_delta("deploy.sat.MulQuant:wide",
                                [&] { mq.run_into({&x}, out); }),
                      want_sat)
                << at;
            expect_same(out, ref, at + " out of place");
            ITensor in_place = x;
            EXPECT_EQ(sat_delta("deploy.sat.MulQuant:wide",
                                [&] { mq.run_into({&in_place}, in_place); }),
                      want_sat)
                << at;
            expect_same(in_place, ref, at + " in place");
          }
        }
      }
    }
  }
  EXPECT_GT(clips, 0);  // the clip-count comparison is not vacuous
  par::set_max_threads(saved);
  obs::set_metrics_enabled(metrics_were_on);
}

/// MulQuant's requant in uint64 arithmetic: the wrapped bits of the 64-bit
/// vector lanes, which every rung must produce.
std::int64_t requant_wrapped(std::int64_t v, std::int64_t mul,
                             std::int64_t bias, int f) {
  const std::uint64_t y =
      static_cast<std::uint64_t>(mul) *
          (static_cast<std::uint64_t>(v) + static_cast<std::uint64_t>(bias)) +
      (std::uint64_t{1} << (f - 1));
  return static_cast<std::int64_t>(y) >> f;
}

TEST(IntOps, ScalarFormsWrapLikeVectorLanesAtEveryRung) {
  // A checkpoint bounds neither MulQuant's multiplier nor an add's
  // operands: products and sums past int64 wrap on every rung, and the
  // scalar forms compute them without undefined behaviour.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMul = std::int64_t{1} << 40;
  constexpr int kFrac = 20;
  const std::vector<std::int64_t> xs = {std::int64_t{1} << 30,
                                        (std::int64_t{1} << 30) + 12345,
                                        -(std::int64_t{1} << 30) - 7,
                                        kMax, kMin, 3, -5, 1 << 20, 99999,
                                        -123456789, 1 << 24};
  const ITensor x = ITensor::from({static_cast<std::int64_t>(xs.size())}, xs);
  MulQuantOp mq({kMul}, {3}, kFrac, -127, 127, MqLayout::kPerTensor);
  mq.label = "wrap";
  IntAddOp add(-100, 100);
  add.label = "wrap";
  std::vector<std::int64_t> ys(xs.size()), want_mq, want_add;
  std::int64_t mq_sat = 0, add_sat = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ys[i] = i % 2 ? -1 : 1;  // kMax + 1 and kMin - 1 wrap
    const std::int64_t y = requant_wrapped(xs[i], kMul, 3, kFrac);
    want_mq.push_back(std::clamp<std::int64_t>(y, -127, 127));
    mq_sat += y > 127 || y < -127 ? 1 : 0;
    const auto sum = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(xs[i]) + static_cast<std::uint64_t>(ys[i]));
    want_add.push_back(std::clamp<std::int64_t>(sum, -100, 100));
    add_sat += sum > 100 || sum < -100 ? 1 : 0;
  }
  const ITensor y = ITensor::from(x.shape(), ys);
  // The same MulQuant fused into a linear: |x|, |w| <= 32767 at depth 1
  // pass the int32 accumulation proof, and acc ~ 2^30 times 2^40 wraps.
  const std::int64_t out_f = 13;  // an 8-lane tail
  ITensor w({out_f, 1});
  for (std::int64_t o = 0; o < out_f; ++o) {
    w[o] = o % 3 == 0 ? 32767 : (o % 3 == 1 ? -32767 : 1000 * o);
  }
  IntLinearOp lin(w);
  lin.set_solver_choice({"gemm_i8_fused", true, true, ""});
  const auto packed = lin.pack_weights();
  ASSERT_NE(packed, nullptr);
  const ITensor rows = ITensor::from({4, 1}, {32767, -32767, 32766, 17});
  const ITensor acc = lin.run({&rows});  // the int64 reference GEMM
  std::vector<std::int64_t> want_fused;
  std::int64_t fused_sat = 0;
  for (std::int64_t i = 0; i < acc.numel(); ++i) {
    const std::int64_t v = requant_wrapped(acc[i], kMul, 3, kFrac);
    want_fused.push_back(std::clamp<std::int64_t>(v, -127, 127));
    fused_sat += v > 127 || v < -127 ? 1 : 0;
  }
  EXPECT_GT(mq_sat, 0);
  EXPECT_GT(add_sat, 0);
  EXPECT_GT(fused_sat, 0);
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const IsaCapGuard guard;
  for (const util::IsaTier cap : kIsaCaps) {
    util::set_isa_tier_cap(cap);
    const std::string at = std::string("cap ") + util::isa_tier_name(cap);
    ITensor got;
    const auto standalone = [&] { got = mq.run({&x}); };
    EXPECT_EQ(sat_delta("deploy.sat.MulQuant:wrap", standalone), mq_sat) << at;
    expect_same(got, ITensor::from(x.shape(), want_mq), at + " MulQuant");
    const auto residual = [&] { got = add.run({&x, &y}); };
    EXPECT_EQ(sat_delta("deploy.sat.IntAdd:wrap", residual), add_sat) << at;
    expect_same(got, ITensor::from(x.shape(), want_add), at + " IntAdd");
    const auto fused = [&] {
      lin.run_packed({&rows}, packed.get(), &mq, got);
    };
    EXPECT_EQ(sat_delta("deploy.sat.MulQuant:wrap", fused), fused_sat) << at;
    expect_same(got, ITensor::from(acc.shape(), want_fused), at + " fused");
  }
  obs::set_metrics_enabled(metrics_were_on);
}

TEST(IntOps, ConvLinearAddPoolsAgainstReference) {
  // IntConv2d on small integers equals the float conv rounded.
  ConvSpec s;
  s.in_channels = 1;
  s.out_channels = 1;
  s.kernel = 2;
  ITensor w = ITensor::from({1, 1, 2, 2}, {1, 2, 3, 4});
  IntConv2dOp conv(w, s);
  ITensor x = ITensor::from({1, 1, 2, 2}, {1, 1, 1, 1});
  std::vector<const ITensor*> ins{&x};
  EXPECT_EQ(conv.run(ins)[0], 10);

  IntLinearOp lin(ITensor::from({2, 3}, {1, 0, 0, 1, 1, 1}));
  ITensor xv = ITensor::from({1, 3}, {5, 6, 7});
  std::vector<const ITensor*> ins2{&xv};
  ITensor yl = lin.run(ins2);
  EXPECT_EQ(yl[0], 5);
  EXPECT_EQ(yl[1], 18);

  IntAddOp add(-10, 10);
  ITensor a = ITensor::from({2}, {4, 9});
  ITensor b = ITensor::from({2}, {3, 9});
  std::vector<const ITensor*> ins3{&a, &b};
  ITensor ya = add.run(ins3);
  EXPECT_EQ(ya[0], 7);
  EXPECT_EQ(ya[1], 10);  // clamped

  IntMaxPool2dOp mp(2, 2, 0);
  ITensor xm = ITensor::from({1, 1, 2, 2}, {1, 9, -4, 3});
  std::vector<const ITensor*> ins4{&xm};
  EXPECT_EQ(mp.run(ins4)[0], 9);

  // GAP with m = 1/4 in fixed point: mean of the window.
  IntGlobalAvgPoolOp gap(1024, 12, -1000, 1000);
  ITensor xg = ITensor::from({1, 1, 2, 2}, {4, 8, 12, 16});
  std::vector<const ITensor*> ins5{&xg};
  EXPECT_EQ(gap.run(ins5)[0], 10);
}

TEST(IntOps, TokenizeMatchesPatchLayout) {
  TokenizeOp tok;
  ITensor x({1, 2, 1, 2});  // C=2, T=2
  x[0] = 1; x[1] = 2;       // channel 0
  x[2] = 3; x[3] = 4;       // channel 1
  std::vector<const ITensor*> ins{&x};
  ITensor y = tok.run(ins);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 2}));
  EXPECT_EQ(y.at(0, 0, 0), 1);
  EXPECT_EQ(y.at(0, 0, 1), 3);
  EXPECT_EQ(y.at(0, 1, 0), 2);
  EXPECT_EQ(y.at(0, 1, 1), 4);
}

TEST(IntOps, EmptyReductionAxesThrow) {
  // An empty reduction extent is a diagnostic, never a division by zero.
  IntGlobalAvgPoolOp gap(1024, 12, -1000, 1000);
  const ITensor xg({1, 1, 0, 4});
  EXPECT_THROW(gap.run({&xg}), Error);
  IntMeanPoolTokensOp mean(1024, 12, -1000, 1000);
  const ITensor xt({1, 0, 4});
  EXPECT_THROW(mean.run({&xt}), Error);
  LutSoftmaxOp sm(build_exp_lut(0.1F, 16, 15), 255);
  const ITensor xs({1, 2, 0});
  EXPECT_THROW(sm.run({&xs}), Error);
  // A linear weight with a zero extent is rejected when the op is built,
  // before any request can reach its [rows, 0] feature split.
  EXPECT_THROW(IntLinearOp(ITensor({4, 0})), Error);
  EXPECT_THROW(IntLinearOp(ITensor({0, 4})), Error);
}

TEST(LutSoftmax, ApproximatesFloatSoftmax) {
  const float in_scale = 0.05F;
  auto lut = build_exp_lut(in_scale, 256, 15);
  LutSoftmaxOp sm(lut, 255);
  ITensor x = random_itensor({4, 8}, -60, 60, 3);
  std::vector<const ITensor*> ins{&x};
  ITensor p = sm.run(ins);
  Tensor ref = softmax_lastdim(
      apply(to_float(x), [&](float v) { return v * in_scale; }));
  for (std::int64_t i = 0; i < p.numel(); ++i) {
    const float approx = static_cast<float>(p[i]) / 255.0F;
    EXPECT_NEAR(approx, ref[i], 0.02F) << "at " << i;
  }
}

TEST(LutSoftmax, RowsSumToApproxQmax) {
  auto lut = build_exp_lut(0.1F, 128, 15);
  LutSoftmaxOp sm(lut, 255);
  ITensor x = random_itensor({2, 6}, -30, 30, 4);
  std::vector<const ITensor*> ins{&x};
  ITensor p = sm.run(ins);
  for (int r = 0; r < 2; ++r) {
    std::int64_t s = 0;
    for (int i = 0; i < 6; ++i) s += p.at(r, i);
    EXPECT_NEAR(static_cast<double>(s), 255.0, 6.0);
  }
}

TEST(LutGelu, FullResolutionTableIsNearExact) {
  const float in_scale = 0.02F, out_scale = 0.02F;
  std::int64_t step = 1;
  auto lut = build_gelu_lut(in_scale, -127, 127, out_scale, -127, 127, 255,
                            step);
  LutGeluOp op(lut, -127, 127, step);
  ITensor x = random_itensor({64}, -127, 127, 5);
  std::vector<const ITensor*> ins{&x};
  ITensor y = op.run(ins);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float ref = gelu_value(static_cast<float>(x[i]) * in_scale);
    const float got = static_cast<float>(y[i]) * out_scale;
    EXPECT_NEAR(got, ref, out_scale * (static_cast<float>(step) + 1.0F));
  }
}

TEST(LutGelu, CoarseTableDegradesGracefully) {
  const float in_scale = 0.02F, out_scale = 0.02F;
  std::int64_t step_fine = 1, step_coarse = 1;
  auto fine = build_gelu_lut(in_scale, -127, 127, out_scale, -127, 127, 255,
                             step_fine);
  auto coarse = build_gelu_lut(in_scale, -127, 127, out_scale, -127, 127, 17,
                               step_coarse);
  EXPECT_GT(step_coarse, step_fine);
  EXPECT_LT(coarse.size(), fine.size());
}

TEST(IntLayerNorm, InstantModeMatchesFloatLayerNorm) {
  const std::int64_t d = 16;
  const float s_out = 0.02F;
  Rng rng(6);
  std::vector<std::int64_t> gfx(d), bfx(d);
  std::vector<float> gamma(d), beta(d);
  for (std::int64_t i = 0; i < d; ++i) {
    gamma[static_cast<std::size_t>(i)] = rng.uniform(0.5F, 1.5F);
    beta[static_cast<std::size_t>(i)] = rng.uniform(-0.3F, 0.3F);
    gfx[static_cast<std::size_t>(i)] = to_fixed(
        gamma[static_cast<std::size_t>(i)] / s_out, FixedPointFormat{8, 8});
    bfx[static_cast<std::size_t>(i)] = to_fixed(
        beta[static_cast<std::size_t>(i)] / s_out, FixedPointFormat{8, 8});
  }
  IntLayerNormOp ln(gfx, bfx, 8, -127, 127);
  ITensor x = random_itensor({4, d}, -100, 100, 7);
  std::vector<const ITensor*> ins{&x};
  ITensor y = ln.run(ins);
  // Float reference over the dequantized input.
  for (int r = 0; r < 4; ++r) {
    double mu = 0, var = 0;
    for (std::int64_t i = 0; i < d; ++i) mu += x.at(r, i);
    mu /= static_cast<double>(d);
    for (std::int64_t i = 0; i < d; ++i) {
      const double dv = static_cast<double>(x.at(r, i)) - mu;
      var += dv * dv;
    }
    var /= static_cast<double>(d);
    for (std::int64_t i = 0; i < d; ++i) {
      const double xhat = (static_cast<double>(x.at(r, i)) - mu) /
                          std::sqrt(var + 1e-9);
      double ref = gamma[static_cast<std::size_t>(i)] * xhat +
                   beta[static_cast<std::size_t>(i)];
      // The op clamps to the output grid; clamp the reference likewise.
      ref = std::min(127.0 * s_out, std::max(-127.0 * s_out, ref));
      const double got = static_cast<double>(y.at(r, i)) * s_out;
      EXPECT_NEAR(got, ref, 0.08) << "r=" << r << " i=" << i;
    }
  }
}

TEST(IntLayerNorm, RunningModeUsesFrozenStats) {
  const std::int64_t d = 8;
  std::vector<std::int64_t> gfx(d, 256), bfx(d, 0);  // gamma/s_out = 1.0
  // mean_int = 10, inv_sigma_fx = (s_in/sigma) << 16 with s_in/sigma = 0.5.
  IntLayerNormOp ln(gfx, bfx, 8, -127, 127, 10, 32768, 16);
  ITensor x({1, d}, 12);  // (12 - 10) * 0.5 = 1.0 -> q = 1/s_out
  std::vector<const ITensor*> ins{&x};
  ITensor y = ln.run(ins);
  // gamma_fx = 256 = 1.0/s_out at f=8 -> output == xhat / s_out*s_out = 256*xhat>>16? Work it out:
  // xhat_f = ((12-10)*32768) >> (16-8) = 256 (= 1.0 at f=8)
  // y = (256*256 + 0 + half) >> 16 = 1.
  EXPECT_EQ(y[0], 1);
}

TEST(IntLayerNorm, HighVarianceRowMatchesWideReference) {
  // var << 20 sits above 3037000499^2, where the isqrt correction's
  // (x + 1)^2 used to overflow int64 and never stop.
  std::vector<std::int64_t> row;
  for (int i = 0; i < 31; ++i) {
    row.push_back(2965761);
    row.push_back(-2965761);
  }
  row.push_back(2967674);
  row.push_back(-2967674);
  i128 var_sum = 0;
  for (const std::int64_t v : row) var_sum += i128{v} * v;
  ASSERT_GT(var_sum / 64 * (i128{1} << 20), i128{3037000499} * 3037000499);
  std::vector<std::int64_t> g(64), b(64);
  for (std::size_t i = 0; i < 64; ++i) {
    g[i] = 900 + 37 * static_cast<std::int64_t>(i);
    b[i] = static_cast<std::int64_t>(i % 7) * 40 - 120;
  }
  const IntLayerNormOp ln(g, b, 8, -1000, 1000);
  const ITensor x = rows_tensor({row});
  const std::vector<std::int64_t> want =
      layernorm_wide(x.data(), g, b, 8, -1000, 1000);
  const auto [generic, top] = generic_and_top(ln, x);
  expect_same(generic, ITensor::from({1, 64}, want), "generic");
  expect_same(top, ITensor::from({1, 64}, want), "top rung");
}

TEST(IntLayerNorm, InstantRungsMatchWideReferenceOnEdgeRows) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // Widths around the 8-lane vector, so every tail length shows up.
  for (const std::int64_t d : {1, 2, 3, 8, 13, 64, 67}) {
    Rng rng(static_cast<std::uint64_t>(d));
    std::vector<std::int64_t> g(static_cast<std::size_t>(d));
    std::vector<std::int64_t> b(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = rng.randint(-3000, 3000);
      b[i] = rng.randint(-400, 400);
    }
    const IntLayerNormOp ln(g, b, 8, -127, 127);
    std::vector<std::vector<std::int64_t>> in_bound;
    for (int r = 0; r < 6; ++r) {
      std::vector<std::int64_t> row(g.size());
      for (auto& v : row) v = rng.randint(-127, 127);
      in_bound.push_back(row);
    }
    // Mostly small positive deviations and one large negative one.
    std::vector<std::int64_t> skew(g.size(), 40);
    skew.back() = -90000;
    in_bound.push_back(skew);
    in_bound.emplace_back(g.size(), -77);  // zero variance: divisor 1
    // m -/+ c pairs: var = c^2, divisor c << 10, and every numerator
    // (c << 18) an exact multiple of it. For c = 49 and 103 the double
    // estimate of the quotient falls one short.
    for (const std::int64_t c : {3, 5, 7, 49, 103, 1000003}) {
      std::vector<std::int64_t> row(g.size(), 500);
      for (std::size_t i = 0; i + 1 < row.size(); i += 2) {
        row[i] -= c;
        row[i + 1] += c;
      }
      in_bound.push_back(row);
    }
    // Deviations at the divide's bound (2^34 at f = 8) and past it, and
    // the extremes: these rows take the integer-divide row on every rung.
    std::vector<std::vector<std::int64_t>> past;
    for (const std::int64_t v : {std::int64_t{1} << 34, kMax, kMin}) {
      std::vector<std::int64_t> row(g.size(), 0);
      for (std::size_t i = 0; i < row.size(); i += 3) row[i] = v;
      if (row.size() > 1) row[1] = -(v / 2);
      past.push_back(row);
    }
    std::vector<std::int64_t> ext(g.size());
    for (std::size_t i = 0; i < ext.size(); ++i) ext[i] = i % 2 ? kMin : kMax;
    past.push_back(ext);
    // -/+ x pairs whose squares wrap: numerators near 2^63 over small
    // divisors, where the double estimate is off by far more than one.
    for (const std::int64_t x : {(std::int64_t{1} << 44) + 12345,
                                 (std::int64_t{1} << 40) + 7,
                                 3 * (std::int64_t{1} << 41) + 1}) {
      std::vector<std::int64_t> row(g.size(), 0);
      for (std::size_t i = 0; i + 1 < row.size(); i += 2) {
        row[i] = x;
        row[i + 1] = -x;
      }
      past.push_back(row);
    }

    const ITensor xi = rows_tensor(in_bound);
    const auto [gi, ti] = generic_and_top(ln, xi);
    const std::string tag = "d=" + std::to_string(d);
    expect_same(ti, gi, tag);
    for (std::size_t r = 0; r < in_bound.size(); ++r) {
      const std::vector<std::int64_t> want = layernorm_wide(
          xi.data() + static_cast<std::int64_t>(r) * d, g, b, 8, -127, 127);
      for (std::int64_t i = 0; i < d; ++i) {
        ASSERT_EQ(gi.at(static_cast<std::int64_t>(r), i),
                  want[static_cast<std::size_t>(i)])
            << tag << " row " << r << " lane " << i;
      }
    }
    // An unclamped output, so a wrong quotient cannot hide in saturation.
    const IntLayerNormOp wide(g, b, 8, kMin, kMax);
    const ITensor xp = rows_tensor(past);
    for (const IntLayerNormOp* op : {&ln, &wide}) {
      const auto [gp, tp] = generic_and_top(*op, xp);
      expect_same(tp, gp, tag + " past the bound");
    }
  }
}

TEST(IntLayerNorm, WarmRunIntoAllocatesNothing) {
  if (!kT2cAllocCounting) {
    GTEST_SKIP() << "operator new/delete not replaced under ASan";
  }
  std::vector<std::int64_t> g(64, 700), b(64, 3);
  const IntLayerNormOp ln(g, b, 8, -127, 127);
  const ITensor x = random_itensor({3, 16, 64}, -127, 127, 17);
  const std::vector<const ITensor*> ins = {&x};
  const int saved = par::max_threads();
  for (const int threads : {1, 4}) {
    par::set_max_threads(threads);
    // One pooled region first: fresh workers allocate while they start.
    par::parallel_for(0, threads, 1, [](std::int64_t, std::int64_t) {});
    ITensor out;
    ln.run_into(ins, out);
    const std::int64_t before = g_t2c_alloc_count.load();
    ln.run_into(ins, out);
    EXPECT_EQ(g_t2c_alloc_count.load() - before, 0) << "@" << threads;
    expect_same(out, ln.run(ins), "run_into vs run");
  }
  par::set_max_threads(saved);
}

TEST(LutGelu, RungsMatchIndexReferenceAcrossWindow) {
  struct Window {
    std::int64_t in_min, in_max, step;
  };
  // vit_b1's window (step 1, 255 entries), coarse steps (for step 49 the
  // double estimate of an exact multiple falls one short), an off-centre
  // window, and one past the divide's bound.
  const Window windows[] = {{-127, 127, 1},
                            {-127, 127, 3},
                            {-127, 127, 17},
                            {-127, 127, 49},
                            {-100, 37, 7},
                            {-(std::int64_t{1} << 60), std::int64_t{1} << 60,
                             std::int64_t{1} << 55}};
  for (const Window& w : windows) {
    const std::int64_t entries = (w.in_max - w.in_min) / w.step + 1;
    std::vector<std::int64_t> lut(static_cast<std::size_t>(entries));
    for (std::int64_t j = 0; j < entries; ++j) {
      lut[static_cast<std::size_t>(j)] = 7 * j - 300;  // distinct entries
    }
    const LutGeluOp op(lut, w.in_min, w.in_max, w.step);
    std::vector<std::int64_t> xs = {std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max()};
    const bool wide = w.in_max - w.in_min > 100000;
    const std::int64_t stride = wide ? std::int64_t{1} << 53 : 1;
    for (std::int64_t q = w.in_min - 50 * stride; q <= w.in_max + 50 * stride;
         q += stride) {
      xs.push_back(q);
      if (wide) xs.push_back(q + 12345);
    }
    const ITensor x = ITensor::from({static_cast<std::int64_t>(xs.size())}, xs);
    std::vector<std::int64_t> want(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const std::int64_t q = std::clamp(xs[i], w.in_min, w.in_max);
      const std::int64_t idx = (q - w.in_min + w.step / 2) / w.step;
      want[i] = lut[static_cast<std::size_t>(
          std::clamp<std::int64_t>(idx, 0, entries - 1))];
    }
    const auto [generic, top] = generic_and_top(op, x);
    const ITensor ref = ITensor::from(x.shape(), want);
    const std::string tag = "step " + std::to_string(w.step);
    expect_same(generic, ref, tag + " generic");
    expect_same(top, ref, tag + " top rung");
  }
}

TEST(LutSoftmax, RungsMatchIntegerDivideOnTiesAndFlatRows) {
  const std::vector<std::int64_t> exp_lut = build_exp_lut(0.05F, 256, 15);
  std::vector<std::int64_t> signed_lut = exp_lut;
  signed_lut[3] = -5;  // a negative entry rules out the reciprocal divide
  // Two equal logits over this LUT: sum 98, numerator 49 * 255 + 49, whose
  // double quotient estimate falls one short.
  const std::vector<std::int64_t> lut49 = {49, 24, 12, 6, 3, 1};
  for (const auto& [lut, p_qmax] :
       std::vector<std::pair<std::vector<std::int64_t>, std::int64_t>>{
           {exp_lut, 255}, {exp_lut, 32767}, {signed_lut, 255},
           {lut49, 255}}) {
    const LutSoftmaxOp sm(lut, p_qmax);
    for (const std::int64_t d : {1, 2, 5, 8, 13, 16}) {
      Rng rng(static_cast<std::uint64_t>(d * 31 + p_qmax));
      std::vector<std::vector<std::int64_t>> rows;
      rows.emplace_back(static_cast<std::size_t>(d), 42);  // all equal
      std::vector<std::int64_t> ties(static_cast<std::size_t>(d), 0);
      ties.front() = 9;
      ties.back() = 9;
      rows.push_back(ties);
      for (int r = 0; r < 4; ++r) {
        std::vector<std::int64_t> row(static_cast<std::size_t>(d));
        for (auto& v : row) v = rng.randint(-400, 400);  // past the LUT too
        rows.push_back(row);
      }
      // Logits more than 2^63 apart: the gap saturates at the last entry.
      std::vector<std::int64_t> extremes(static_cast<std::size_t>(d), 0);
      extremes.front() = std::numeric_limits<std::int64_t>::min();
      extremes.back() = std::numeric_limits<std::int64_t>::max();
      rows.push_back(extremes);
      const ITensor x = rows_tensor(rows);
      std::vector<std::int64_t> want;
      const auto last = static_cast<std::uint64_t>(lut.size()) - 1;
      for (const auto& row : rows) {
        const std::int64_t m = *std::max_element(row.begin(), row.end());
        std::vector<std::int64_t> e;
        std::int64_t sum = 0;
        for (const std::int64_t v : row) {
          const std::uint64_t gap = static_cast<std::uint64_t>(m) -
                                    static_cast<std::uint64_t>(v);
          e.push_back(lut[static_cast<std::size_t>(std::min(last, gap))]);
          sum += e.back();
        }
        for (const std::int64_t ei : e) {
          want.push_back(sum > 0 ? (ei * p_qmax + sum / 2) / sum : 0);
        }
      }
      const auto [generic, top] = generic_and_top(sm, x);
      const ITensor ref = ITensor::from(x.shape(), want);
      const std::string tag =
          "d=" + std::to_string(d) + " qmax=" + std::to_string(p_qmax);
      expect_same(generic, ref, tag + " generic");
      expect_same(top, ref, tag + " top rung");
    }
  }
}

TEST(IntOps, WarmMulQuantAndIntAddAllocateNothing) {
  // A warm call into its previous output allocates nothing: no error
  // message built on success, one atomic for the clip count, and the
  // parallel_for body passed by reference, pooled or inline.
  if (!kT2cAllocCounting) {
    GTEST_SKIP() << "operator new/delete not replaced under ASan";
  }
  const ITensor x = random_itensor({4, 8, 32, 32}, -60000, 60000, 21);
  const ITensor y = random_itensor({4, 8, 32, 32}, -60000, 60000, 22);
  const ITensor rows = random_itensor({64, 512}, -60000, 60000, 23);
  const MulQuantOp per_tensor({181}, {11}, 16, -127, 127,
                              MqLayout::kPerTensor);
  const MulQuantOp per_channel(std::vector<std::int64_t>(8, 181),
                               std::vector<std::int64_t>(8, 11), 16, -127, 127,
                               MqLayout::kChannelNCHW);
  const MulQuantOp last_dim(std::vector<std::int64_t>(512, 181),
                            std::vector<std::int64_t>(512, 11), 16, -127, 127,
                            MqLayout::kLastDim);
  const IntAddOp add(-100000, 100000);
  const std::pair<const DeployOp*, std::vector<const ITensor*>> calls[] = {
      {&per_tensor, {&x}},
      {&per_channel, {&x}},
      {&last_dim, {&rows}},
      {&add, {&x, &y}}};
  const int saved = par::max_threads();
  for (const int threads : {1, 4}) {
    par::set_max_threads(threads);
    for (const auto& [op, ins] : calls) {
      ITensor out;
      op->run_into(ins, out);
      const std::int64_t before = g_t2c_alloc_count.load();
      op->run_into(ins, out);
      EXPECT_EQ(g_t2c_alloc_count.load() - before, 0)
          << op->kind() << " @" << threads;
    }
  }
  par::set_max_threads(saved);
}

TEST(DeployModelTest, GraphRunsTopologicallyAndChecksIds) {
  DeployModel dm;
  auto mq = std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{8192}, std::vector<std::int64_t>{0}, 12,
      -1000, 1000, MqLayout::kPerTensor);  // x2
  mq->inputs = {0};
  const int v1 = dm.add_op(std::move(mq));
  auto add = std::make_unique<IntAddOp>(-10000, 10000);
  add->inputs = {0, v1};  // x + 2x
  const int v2 = dm.add_op(std::move(add));
  dm.set_output(v2);
  dm.input_scale = 1.0F;
  dm.output_scale = 1.0F;
  ITensor x = ITensor::from({2}, {3, -4});
  ITensor y = dm.run_int(x);
  EXPECT_EQ(y[0], 9);
  EXPECT_EQ(y[1], -12);

  auto bad = std::make_unique<IntAddOp>(-1, 1);
  bad->inputs = {99};
  EXPECT_THROW(dm.add_op(std::move(bad)), Error);
}

TEST(DeployModelTest, InputQuantizationClampsToGrid) {
  DeployModel dm;
  auto id = std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{4096}, std::vector<std::int64_t>{0}, 12,
      -127, 127, MqLayout::kPerTensor);
  id->inputs = {0};
  dm.set_output(dm.add_op(std::move(id)));
  dm.input_scale = 0.1F;
  dm.input_qmin = -127;
  dm.input_qmax = 127;
  Tensor x = Tensor::from({2}, {0.55F, 100.0F});
  ITensor q = dm.quantize_input(x);
  EXPECT_EQ(q[0], 6);     // round(5.5) = 6 (nearest-even -> 6)
  EXPECT_EQ(q[1], 127);   // clamped
}

}  // namespace
}  // namespace t2c
