// Convolution kernel tests: im2col forward vs a naive direct convolution,
// grouped/depthwise paths, geometry, the integer conv against a direct loop
// at every ISA cap and several thread counts, on operands at and just past
// the int32 edges, the int64 kernels' wrapping on 2^40-scale operands, and
// backward passes against central differences.
#include <gtest/gtest.h>

#include "core/parallel.h"
#include "tensor/conv_ops.h"
#include "tensor/elementwise.h"
#include "tensor/matmul.h"
#include "test_util.h"
#include "util/cpuinfo.h"

namespace t2c {
namespace {

/// Restores the pool size in force at construction on scope exit.
struct ThreadGuard {
  int saved = par::max_threads();
  ~ThreadGuard() { par::set_max_threads(saved); }
};

using testing::iconv_scanned;
using testing::IsaCapGuard;

/// Every ISA cap: the scalar panel fill and wide tile at generic and avx2,
/// the AVX-512 fill and (on narrow operands) the narrow lanes above.
constexpr util::IsaTier kCaps[] = {util::IsaTier::kGeneric,
                                   util::IsaTier::kAvx2,
                                   util::IsaTier::kAvx512,
                                   util::IsaTier::kAvx512Vnni};

/// Direct integer convolution whose every product and sum wraps mod 2^64
/// (through uint64_t): the reference for iconv2d_forward on any operands.
ITensor direct_iconv(const ITensor& x, const ITensor& w, const ConvSpec& s) {
  const std::int64_t n = x.size(0), h = x.size(2), wd = x.size(3);
  const std::int64_t oh = s.out_hw(h), ow = s.out_hw(wd);
  const std::int64_t icg = s.in_channels / s.groups;
  const std::int64_t ocg = s.out_channels / s.groups;
  ITensor out({n, s.out_channels, oh, ow});
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t oc = 0; oc < s.out_channels; ++oc) {
      const std::int64_t g = oc / ocg;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          std::uint64_t acc = 0;
          for (std::int64_t c = 0; c < icg; ++c) {
            for (int ki = 0; ki < s.kernel; ++ki) {
              for (int kj = 0; kj < s.kernel; ++kj) {
                const std::int64_t iy = oy * s.stride + ki - s.padding;
                const std::int64_t ix = ox * s.stride + kj - s.padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += static_cast<std::uint64_t>(
                           x[((in * s.in_channels + g * icg + c) * h + iy) *
                                 wd +
                             ix]) *
                       static_cast<std::uint64_t>(
                           w[((oc * icg + c) * s.kernel + ki) * s.kernel +
                             kj]);
              }
            }
          }
          out[((in * s.out_channels + oc) * oh + oy) * ow + ox] =
              static_cast<std::int64_t>(acc);
        }
      }
    }
  }
  return out;
}

/// Integer tensor with entries base + rng.randint(-spread, spread).
ITensor int_tensor(Shape shape, std::int64_t base, int spread,
                   std::uint64_t seed) {
  ITensor t(std::move(shape));
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = base + rng.randint(-spread, spread);
  }
  return t;
}

void expect_same(const ITensor& got, const ITensor& want,
                 const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " element " << i;
  }
}

/// Direct (quadruple-loop) convolution reference.
Tensor naive_conv(const Tensor& x, const Tensor& w, const ConvSpec& s) {
  const std::int64_t n = x.size(0), h = x.size(2), wd = x.size(3);
  const std::int64_t oh = s.out_hw(h), ow = s.out_hw(wd);
  const std::int64_t icg = s.in_channels / s.groups;
  const std::int64_t ocg = s.out_channels / s.groups;
  Tensor out({n, s.out_channels, oh, ow}, 0.0F);
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t oc = 0; oc < s.out_channels; ++oc) {
      const std::int64_t g = oc / ocg;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0F;
          for (std::int64_t c = 0; c < icg; ++c) {
            for (int ki = 0; ki < s.kernel; ++ki) {
              for (int kj = 0; kj < s.kernel; ++kj) {
                const std::int64_t iy = oy * s.stride + ki - s.padding;
                const std::int64_t ix = ox * s.stride + kj - s.padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += x.at(in, g * icg + c, iy, ix) * w.at(oc, c, ki, kj);
              }
            }
          }
          out.at(in, oc, oy, ox) = acc;
        }
      }
    }
  }
  return out;
}

struct ConvCase {
  std::int64_t in_c, out_c;
  int kernel, stride, padding, groups;
};

class ConvParam : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParam, ForwardMatchesNaive) {
  const ConvCase c = GetParam();
  ConvSpec s;
  s.in_channels = c.in_c;
  s.out_channels = c.out_c;
  s.kernel = c.kernel;
  s.stride = c.stride;
  s.padding = c.padding;
  s.groups = c.groups;
  Tensor x = testing::random_tensor({2, c.in_c, 7, 7}, 42);
  Tensor w = testing::random_tensor(
      {c.out_c, c.in_c / c.groups, c.kernel, c.kernel}, 43);
  Tensor got = conv2d_forward(x, w, nullptr, s);
  Tensor want = naive_conv(x, w, s);
  EXPECT_LT(max_abs_diff(got, want), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParam,
    ::testing::Values(ConvCase{3, 4, 3, 1, 1, 1},   // same-pad 3x3
                      ConvCase{3, 4, 3, 2, 1, 1},   // strided
                      ConvCase{4, 8, 1, 1, 0, 1},   // pointwise
                      ConvCase{4, 4, 3, 1, 1, 4},   // depthwise
                      ConvCase{4, 8, 3, 2, 1, 2},   // grouped strided
                      ConvCase{3, 2, 5, 1, 2, 1},   // 5x5
                      ConvCase{3, 6, 4, 4, 0, 1})); // patchify (k == stride)

TEST(ConvOps, BiasIsAddedPerChannel) {
  ConvSpec s;
  s.in_channels = 1;
  s.out_channels = 2;
  s.kernel = 1;
  Tensor x({1, 1, 2, 2}, 1.0F);
  Tensor w = Tensor::from({2, 1, 1, 1}, {1.0F, -1.0F});
  Tensor b = Tensor::from({2}, {0.25F, 0.5F});
  Tensor y = conv2d_forward(x, w, &b, s);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.25F);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -0.5F);
}

TEST(ConvOps, SpecValidation) {
  ConvSpec s;
  s.in_channels = 3;
  s.out_channels = 4;
  s.groups = 2;  // 3 % 2 != 0
  EXPECT_THROW(s.validate(), Error);
}

TEST(ConvOps, IntegerConvMatchesFloatOnIntegerData) {
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 3;
  s.kernel = 3;
  s.padding = 1;
  Rng rng(7);
  ITensor xi({1, 2, 5, 5});
  for (std::int64_t i = 0; i < xi.numel(); ++i) xi[i] = rng.randint(-127, 127);
  ITensor wi({3, 2, 3, 3});
  for (std::int64_t i = 0; i < wi.numel(); ++i) wi[i] = rng.randint(-7, 7);
  ITensor yi = iconv_scanned(xi, wi, s);
  Tensor yf = conv2d_forward(to_float(xi), to_float(wi), nullptr, s);
  for (std::int64_t i = 0; i < yi.numel(); ++i) {
    EXPECT_EQ(yi[i], static_cast<std::int64_t>(std::lround(yf[i])));
  }
}

TEST(ConvOps, IntegerConvMatchesDirectLoop) {
  // Every regime of the batch-folded conv and the direct depthwise loop:
  // batches 1, 3 and 8 on 1x1, 2x2, 3x5 and 16x16 maps, where 3x5 maps
  // (15 columns per image) and odd output-channel counts leave panels that
  // straddle images and row blocks shorter than the tile. Each runs at
  // every ISA cap and at 1, 4 and 16 threads. The AVX-512 rung fills
  // panels with vector loads and, when every operand lies in [-2^31,
  // 2^31), multiplies on narrow lanes; the operands sit at those int32
  // edges, and then one value just outside, first, in the middle and last
  // of x and then of w, sends the call back to the wide lanes.
  ThreadGuard guard;
  const IsaCapGuard cap_guard;
  struct Geo {
    std::int64_t n, ic, oc, h, w;
    int k, stride, pad, groups;
  };
  const Geo geos[] = {
      {1, 8, 8, 16, 16, 3, 1, 1, 1},    // resnet20 3x3 at batch 1
      {1, 3, 8, 16, 16, 4, 4, 0, 1},    // patch embed (k == stride)
      {3, 4, 6, 3, 5, 3, 1, 1, 1},      // 45 columns over 3 images
      {3, 2, 5, 3, 5, 3, 1, 2, 1},      // padding 2 on a 3x5 map
      {3, 4, 6, 3, 5, 1, 2, 0, 2},      // grouped 1x1, stride 2
      {2, 3, 5, 16, 16, 5, 2, 2, 1},    // 5x5, stride 2
      {3, 8, 4, 16, 16, 4, 2, 1, 2},    // 4x4, stride 2, two groups
      {8, 5, 9, 2, 2, 3, 1, 1, 1},      // 2x2 maps, 9 output channels
      {8, 8, 8, 1, 1, 1, 1, 0, 1},      // 1x1 maps: one panel per batch
      {8, 6, 10, 1, 1, 3, 1, 1, 2},     // 1x1 maps, 3x3 kernel, groups 2
      {3, 8, 4, 3, 5, 5, 1, 2, 4},      // one output, two inputs per group
      {8, 16, 16, 16, 16, 3, 1, 1, 16}, // depthwise, stride 1
      {3, 6, 6, 3, 5, 3, 2, 1, 6},      // depthwise, stride 2
      {8, 32, 32, 2, 2, 3, 1, 1, 32},   // depthwise on 2x2 maps
      {8, 16, 16, 1, 1, 3, 1, 1, 16},   // depthwise on 1x1 maps
      {3, 4, 4, 3, 5, 5, 1, 2, 4},      // depthwise 5x5, padding 2
  };
  constexpr std::int64_t kLo = -(std::int64_t{1} << 31);
  constexpr std::int64_t kHi = (std::int64_t{1} << 31) - 1;
  const auto expect_everywhere = [](const ITensor& x, const ITensor& w,
                                    const ConvSpec& s,
                                    const std::string& what) {
    const ITensor want = direct_iconv(x, w, s);
    for (const util::IsaTier cap : kCaps) {
      util::set_isa_tier_cap(cap);
      for (const int threads : {1, 4, 16}) {
        par::set_max_threads(threads);
        expect_same(iconv_scanned(x, w, s), want,
                    what + " cap " + util::isa_tier_name(cap) + " @" +
                        std::to_string(threads));
      }
    }
  };
  for (const Geo& g : geos) {
    ConvSpec s;
    s.in_channels = g.ic;
    s.out_channels = g.oc;
    s.kernel = g.k;
    s.stride = g.stride;
    s.padding = g.pad;
    s.groups = g.groups;
    const std::string geo =
        "n" + std::to_string(g.n) + " " + std::to_string(g.h) + "x" +
        std::to_string(g.w) + " k" + std::to_string(g.k) + " s" +
        std::to_string(g.stride) + " p" + std::to_string(g.pad) + " g" +
        std::to_string(g.groups);
    const ITensor x = int_tensor({g.n, g.ic, g.h, g.w}, 0, 127, 11);
    const ITensor w =
        int_tensor({g.oc, g.ic / g.groups, g.k, g.k}, 0, 127, 12);
    ITensor xe = x, we = w;
    for (ITensor* t : {&xe, &we}) {
      const std::int64_t last = t->numel() - 1;
      (*t)[0] = kLo;
      (*t)[last / 2] = kHi;
      (*t)[last] = t == &xe ? kHi : kLo;
    }
    expect_everywhere(xe, we, s, geo + " int32 edges");
    for (const bool in_x : {true, false}) {
      const std::int64_t last = (in_x ? x : w).numel() - 1;
      for (const std::int64_t at : {std::int64_t{0}, last / 2, last}) {
        for (const std::int64_t v : {kLo - 1, kHi + 1}) {
          ITensor xv = x, wv = w;
          (in_x ? xv : wv)[at] = v;
          expect_everywhere(xv, wv, s,
                            geo + (in_x ? " x[" : " w[") +
                                std::to_string(at) + "] = " +
                                std::to_string(v));
        }
      }
    }
  }
}

TEST(IntWrap, GemmAndConvWrapLikeUint64) {
  // Operands near +-2^40 make every product leave int64; the int64 kernels
  // wrap mod 2^64 (no signed-overflow UB, which a UBSan build stops on)
  // and match a uint64_t reference bit for bit.
  constexpr std::int64_t kBig = std::int64_t{1} << 40;
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const std::int64_t m = 6, k = 13, n = 11;
  ITensor a = int_tensor({m, k}, kBig, 1000, 1);
  ITensor b = int_tensor({k, n}, -kBig, 1000, 2);
  // gemm_i64 accumulates A [M,K] * B [K,N] into a C that already holds
  // 2^40-scale values.
  ITensor c = int_tensor({m, n}, kBig, 1000, 3);
  ITensor want = c;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::uint64_t acc = u(want[i * n + j]);
      for (std::int64_t p = 0; p < k; ++p) {
        acc += u(a[i * k + p]) * u(b[p * n + j]);
      }
      want[i * n + j] = static_cast<std::int64_t>(acc);
    }
  }
  gemm_i64(a.data(), b.data(), c.data(), m, n, k, false, false, true);
  expect_same(c, want, "gemm_i64");
  // iconv2d_forward on its batch-folded GEMM and its depthwise loop.
  for (const int groups : {1, 4}) {
    ConvSpec s;
    s.in_channels = s.out_channels = 4;
    s.kernel = 3;
    s.padding = 1;
    s.groups = groups;
    const ITensor x = int_tensor({2, 4, 3, 5}, -kBig, 1000, 4);
    const ITensor w = int_tensor({4, 4 / groups, 3, 3}, kBig, 1000, 5);
    expect_same(iconv_scanned(x, w, s), direct_iconv(x, w, s),
                "iconv2d_forward groups " + std::to_string(groups));
  }
}

TEST(ConvOps, BackwardInputMatchesNumeric) {
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 3;
  s.kernel = 3;
  s.stride = 2;
  s.padding = 1;
  Tensor x = testing::random_tensor({1, 2, 5, 5}, 91);
  Tensor w = testing::random_tensor({3, 2, 3, 3}, 92, 0.5F);
  Tensor y = conv2d_forward(x, w, nullptr, s);
  // L = 0.5 sum y^2 -> dL/dy = y.
  Tensor gx = conv2d_backward_input(y, w, s, x.shape());
  const float eps = 1e-3F;
  for (std::int64_t i = 0; i < x.numel(); i += 7) {
    Tensor xp = x;
    xp[i] += eps;
    const double lp = testing::half_sq_sum(conv2d_forward(xp, w, nullptr, s));
    xp[i] -= 2 * eps;
    const double lm = testing::half_sq_sum(conv2d_forward(xp, w, nullptr, s));
    EXPECT_NEAR(gx[i], (lp - lm) / (2 * eps), 2e-2F) << "at " << i;
  }
}

TEST(ConvOps, BackwardWeightAndBiasMatchNumeric) {
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 2;
  s.kernel = 3;
  s.padding = 1;
  s.groups = 2;  // exercise the grouped path
  Tensor x = testing::random_tensor({2, 2, 4, 4}, 93);
  Tensor w = testing::random_tensor({2, 1, 3, 3}, 94, 0.5F);
  Tensor b = testing::random_tensor({2}, 95, 0.1F);
  Tensor y = conv2d_forward(x, w, &b, s);
  Tensor gb({2}, 0.0F);
  Tensor gw = conv2d_backward_weight(y, x, s, &gb);
  const float eps = 1e-3F;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    Tensor wp = w;
    wp[i] += eps;
    const double lp = testing::half_sq_sum(conv2d_forward(x, wp, &b, s));
    wp[i] -= 2 * eps;
    const double lm = testing::half_sq_sum(conv2d_forward(x, wp, &b, s));
    EXPECT_NEAR(gw[i], (lp - lm) / (2 * eps), 2e-2F) << "weight " << i;
  }
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    Tensor bp = b;
    bp[i] += eps;
    const double lp = testing::half_sq_sum(conv2d_forward(x, w, &bp, s));
    bp[i] -= 2 * eps;
    const double lm = testing::half_sq_sum(conv2d_forward(x, w, &bp, s));
    EXPECT_NEAR(gb[i], (lp - lm) / (2 * eps), 2e-2F) << "bias " << i;
  }
}

TEST(ConvOps, Im2ColCol2ImAdjoint) {
  // col2im_accum is the adjoint of im2col: <im2col(x), c> == <x, col2im(c)>.
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 2;
  s.kernel = 3;
  s.stride = 2;
  s.padding = 1;
  Tensor x = testing::random_tensor({1, 2, 5, 5}, 17);
  Tensor cols = im2col(x, s, 0, 0);
  Tensor c = testing::random_tensor(cols.shape(), 18);
  double lhs = 0.0;
  for (std::int64_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols[i]) * c[i];
  }
  Tensor back({1, 2, 5, 5}, 0.0F);
  col2im_accum(c, s, 0, 0, back);
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

}  // namespace
}  // namespace t2c
