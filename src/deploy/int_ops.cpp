#include "deploy/int_ops.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "tensor/matmul.h"
#include "tensor/requant.h"
#include "util/textio.h"
#include "xport/writers.h"

namespace t2c {

namespace {

const ITensor& only_input(const std::vector<const ITensor*>& ins,
                          const char* op) {
  if (ins.size() != 1 || ins[0] == nullptr) {
    fail(std::string(op) + ": expects exactly one input");
  }
  return *ins[0];
}

/// Minimum items per parallel chunk for element-wise sweeps; rows of width
/// d use max(1, kElemGrain / d) so tiny tensors stay serial.
constexpr std::int64_t kElemGrain = 4096;

/// True while ops count saturation: metrics or telemetry is on.
bool counting_sats() {
  return obs::metrics_enabled() || obs::telemetry_enabled();
}

#if T2C_AVX512_LANES
// GCC 12's inliner trips -Wmaybe-uninitialized on the _mm*_maskz_*
// builtins; the masked-lane zeroing is architectural, so it is a false
// positive (same note as tensor/int8_gemm.cpp).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// AVX-512 clamped element-wise add (the residual-join datapath): lane
/// adds wrap like rq::wrap_add, and rq::clip8_avx512 is rq::clip1.
__attribute__((target("avx512f"))) void add_span_avx512(
    const std::int64_t* a, const std::int64_t* b, std::int64_t* out,
    std::int64_t len, const rq::Clip& clip, std::int64_t& sat) {
  const __m512i vlo = _mm512_set1_epi64(clip.lo);
  const __m512i vhi = _mm512_set1_epi64(clip.hi);
  for (std::int64_t i = 0; i < len; i += 8) {
    const __mmask8 m = avx512::tail8(len - i);
    const __m512i y =
        _mm512_add_epi64(avx512::load8(a + i, m), avx512::load8(b + i, m));
    avx512::store8(out + i, m, rq::clip8_avx512(y, vlo, vhi, clip, m, sat));
  }
}
#pragma GCC diagnostic pop
#endif

/// Runs `body` on the epilogue view (tensor/int8_gemm.h) of `mq` — kNone
/// when mq is null — and feeds the clips it counts into mq's saturation
/// counters. `per_row` selects how the per-entry axis maps onto the
/// block: channel entries follow rows (conv, NCHW planes), last-dim
/// entries follow columns (linear, token rows). The pointers borrow the
/// op's parameter vectors.
template <typename Body>
void with_epilogue(const MulQuantOp* mq, bool per_row, const Body& body) {
  std::atomic<std::int64_t> sats{0};
  i8::Epilogue ep;
  if (mq != nullptr) {
    ep.mode = mq->layout() == MqLayout::kPerTensor
                  ? i8::Epilogue::Mode::kScalar
                  : (per_row ? i8::Epilogue::Mode::kPerRow
                             : i8::Epilogue::Mode::kPerCol);
    ep.mul = mq->mul().data();
    ep.bias = mq->bias().data();
    ep.frac = mq->frac_bits().data();
    ep.bias_frac = mq->bias_frac();
    ep.lo = mq->out_min();
    ep.hi = mq->out_max();
    if (counting_sats()) ep.sat = &sats;
  }
  body(ep);
  if (ep.sat != nullptr) {
    mq->record_sats(sats.load(std::memory_order_relaxed));
  }
}

}  // namespace

MulQuantOp::MulQuantOp(std::vector<std::int64_t> mul,
                       std::vector<std::int64_t> bias,
                       std::vector<int> frac_bits, std::int64_t out_min,
                       std::int64_t out_max, MqLayout layout, int bias_frac)
    : mul_(std::move(mul)),
      bias_(std::move(bias)),
      frac_(std::move(frac_bits)),
      bias_frac_(bias_frac),
      out_min_(out_min),
      out_max_(out_max),
      layout_(layout) {
  check(!mul_.empty() && mul_.size() == bias_.size() &&
            mul_.size() == frac_.size(),
        "MulQuantOp: mul/bias/frac must be non-empty and equal-sized");
  for (int f : frac_) {
    check(f >= 0 && f < 31, "MulQuantOp: bad frac_bits");
  }
  check(bias_frac >= 0 && bias_frac <= 16, "MulQuantOp: bad bias_frac");
  check(out_max >= out_min, "MulQuantOp: empty output range");
  if (layout_ == MqLayout::kPerTensor) {
    check(mul_.size() == 1, "MulQuantOp: per-tensor layout needs 1 entry");
  }
}

MulQuantOp::MulQuantOp(std::vector<std::int64_t> mul,
                       std::vector<std::int64_t> bias, int frac_bits,
                       std::int64_t out_min, std::int64_t out_max,
                       MqLayout layout, int bias_frac)
    : MulQuantOp(std::vector<std::int64_t>(mul),
                 std::move(bias), std::vector<int>(mul.size(), frac_bits),
                 out_min, out_max, layout, bias_frac) {}

ITensor MulQuantOp::run(const std::vector<const ITensor*>& ins) const {
  const ITensor& x = only_input(ins, "MulQuant");
  ITensor out(x.shape());
  compute(x, out);
  return out;
}

void MulQuantOp::run_into(const std::vector<const ITensor*>& ins,
                          ITensor& out) const {
  const ITensor& x = only_input(ins, "MulQuant");
  recycle_tensor(out, x.shape());
  compute(x, out);
}

void MulQuantOp::absorb_upshift(int k) {
  check(k >= 0, "MulQuantOp::absorb_upshift: negative shift");
  check(bias_frac_ + k <= 16,
        "MulQuantOp::absorb_upshift: bias_frac would leave its range");
  for (int f : frac_) {
    check(f >= k, "MulQuantOp::absorb_upshift: frac_bits would go negative");
  }
  for (int& f : frac_) f -= k;
  bias_frac_ += k;
}

void MulQuantOp::compute(const ITensor& x, ITensor& out) const {
  const std::int64_t* src = x.data();
  std::int64_t* dst = out.data();
  // A per-tensor chunk is one block row of elements; channel entries
  // follow the rows of the NCHW plane block (row0 = the channel), last-dim
  // entries the columns of the token rows.
  const auto sweep = [&](const i8::Epilogue& ep) {
    switch (layout_) {
      case MqLayout::kPerTensor:
        par::parallel_for(
            0, x.numel(), kElemGrain, [&](std::int64_t i0, std::int64_t i1) {
              std::int64_t sat = 0;
              i8::requant(src + i0, 0, dst + i0, 0, 1, i1 - i0, 0, 0, ep, sat);
              rq::add_sats(ep.sat, sat);
            });
        return;
      case MqLayout::kChannelNCHW: {
        check(x.rank() == 4, "MulQuant(kChannelNCHW): input must be NCHW");
        const std::int64_t c = x.size(1), hw = x.size(2) * x.size(3);
        check(static_cast<std::int64_t>(mul_.size()) == c,
              "MulQuant: channel count mismatch");
        const std::int64_t grain = std::max<std::int64_t>(
            1, kElemGrain / std::max<std::int64_t>(1, hw));
        par::parallel_for(
            0, x.size(0) * c, grain, [&](std::int64_t p0, std::int64_t p1) {
              std::int64_t sat = 0;
              // One block per run of consecutive channels of one image.
              for (std::int64_t p = p0; p < p1;) {
                const std::int64_t run = std::min(p1 - p, c - p % c);
                i8::requant(src + p * hw, hw, dst + p * hw, hw, run, hw,
                            p % c, 0, ep, sat);
                p += run;
              }
              rq::add_sats(ep.sat, sat);
            });
        return;
      }
      case MqLayout::kLastDim: {
        const std::int64_t d = x.size(x.rank() - 1);
        check(static_cast<std::int64_t>(mul_.size()) == d,
              "MulQuant: last-dim count mismatch");
        // The per-column requant walks a block once per 8 columns, so a
        // chunk goes in blocks of about kElemGrain elements that stay in
        // cache across those walks.
        const std::int64_t block = std::max<std::int64_t>(1, kElemGrain / d);
        par::parallel_for(
            0, x.numel() / d, block, [&](std::int64_t r0, std::int64_t r1) {
              std::int64_t sat = 0;
              for (std::int64_t r = r0; r < r1; r += block) {
                i8::requant(src + r * d, d, dst + r * d, d,
                            std::min(block, r1 - r), d, 0, 0, ep, sat);
              }
              rq::add_sats(ep.sat, sat);
            });
        return;
      }
    }
  };
  with_epilogue(this, layout_ == MqLayout::kChannelNCHW, sweep);
}

IntConv2dOp::IntConv2dOp(ITensor weight, ConvSpec spec)
    : weight_(std::move(weight)), spec_(spec) {
  spec_.validate();
  // pack_weights() and the kernels size their weight reads from the spec.
  const Shape want = {spec_.out_channels, spec_.in_channels / spec_.groups,
                      spec_.kernel, spec_.kernel};
  if (weight_.shape() != want) {
    fail("IntConv2dOp: weight " + shape_str(weight_.shape()) +
         " is not [OC, IC/groups, K, K] = " + shape_str(want));
  }
  facts_ = WeightFacts::scan(weight_);
}

ITensor IntConv2dOp::run(const std::vector<const ITensor*>& ins) const {
  return iconv2d_forward(only_input(ins, "IntConv2d"), weight_, spec_);
}

std::string IntConv2dOp::kernel() const {
  if (choice_.i8) return choice_.name;
  return choice_.reason.empty() ? "gemm_i64"
                                : "gemm_i64(" + choice_.reason + ")";
}

bool IntConv2dOp::direct() const {
  return choice_.i8 && choice_.name.rfind("dwconv_i8", 0) == 0;
}

std::shared_ptr<const PackedWeights> IntConv2dOp::pack_weights() const {
  if (!choice_.i8) return nullptr;
  const std::int64_t kk =
      (spec_.in_channels / spec_.groups) * spec_.kernel * spec_.kernel;
  if (direct()) return i8::pack_dw(weight_.data(), spec_.out_channels, kk);
  return i8::pack_a(weight_.data(), spec_.out_channels / spec_.groups, kk,
                    spec_.groups);
}

void IntConv2dOp::run_packed(const std::vector<const ITensor*>& ins,
                             const PackedWeights* packed,
                             const MulQuantOp* fused, ITensor& out) const {
  const auto* pa = dynamic_cast<const i8::PackedA*>(packed);
  const auto* pw = dynamic_cast<const i8::PackedDw*>(packed);
  if (pa == nullptr && pw == nullptr) {
    run_into(ins, out);
    return;
  }
  const ITensor& x = only_input(ins, "IntConv2d");
  check(x.rank() == 4 && x.size(1) == spec_.in_channels,
        "IntConv2d: input must be NCHW with matching channels");
  const std::int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const std::int64_t oh = spec_.out_hw(h);
  const std::int64_t ow = spec_.out_hw(w);
  check(oh > 0 && ow > 0, "IntConv2d: output size would be non-positive");
  recycle_tensor(out, {n, spec_.out_channels, oh, ow});
  // Both kernels write disjoint output elements, each from one fixed-order
  // integer accumulation, so results are bit-identical at any thread count.
  with_epilogue(fused, /*per_row=*/true, [&](const i8::Epilogue& ep) {
    if (pw != nullptr) {
      i8::dwconv(x.data(), n, h, w, spec_, *pw, out.data(), ep);
    } else {
      i8::conv_packed(x.data(), n, h, w, spec_, *pa, out.data(), ep,
                      /*threaded=*/true);
    }
  });
}

IntLinearOp::IntLinearOp(ITensor weight) : weight_(std::move(weight)) {
  check(weight_.rank() == 2, "IntLinearOp: weight must be [OUT, IN]");
  check(weight_.size(0) > 0 && weight_.size(1) > 0,
        "IntLinearOp: weight [OUT, IN] has a zero extent");
  facts_ = WeightFacts::scan(weight_);
}

ITensor IntLinearOp::run(const std::vector<const ITensor*>& ins) const {
  const ITensor& x = only_input(ins, "IntLinear");
  const std::int64_t in = weight_.size(1), out = weight_.size(0);
  check(x.size(x.rank() - 1) == in, "IntLinear: feature mismatch");
  const std::int64_t rows = x.numel() / in;
  ITensor y({rows, out});
  // y [rows, OUT] += x [rows, IN] x W^T [IN, OUT] on the tiled int64 GEMM.
  gemm_i64(x.data(), weight_.data(), y.data(), rows, out, in, false,
           /*trans_b=*/true, /*threaded=*/true);
  Shape s = x.shape();
  s.back() = out;
  y.reshape(std::move(s));
  return y;
}

std::string IntLinearOp::kernel() const {
  if (choice_.i8) return choice_.name;
  return choice_.reason.empty() ? "gemm_i64"
                                : "gemm_i64(" + choice_.reason + ")";
}

std::shared_ptr<const PackedWeights> IntLinearOp::pack_weights() const {
  if (!choice_.i8) return nullptr;
  // W is [OUT, IN] consumed as B^T: pack_b with trans_b folds the transpose
  // into the panel layout once, at plan-compile time.
  return i8::pack_b(weight_.data(), weight_.size(1), weight_.size(0),
                    /*trans_b=*/true);
}

void IntLinearOp::run_packed(const std::vector<const ITensor*>& ins,
                             const PackedWeights* packed,
                             const MulQuantOp* fused, ITensor& out) const {
  const auto* pb = dynamic_cast<const i8::PackedB*>(packed);
  if (pb == nullptr) {
    run_into(ins, out);
    return;
  }
  const ITensor& x = only_input(ins, "IntLinear");
  const std::int64_t in = weight_.size(1), o = weight_.size(0);
  check(x.size(x.rank() - 1) == in, "IntLinear: feature mismatch");
  const std::int64_t rows = x.numel() / in;
  Shape s = x.shape();
  s.back() = o;
  recycle_tensor(out, s);
  with_epilogue(fused, /*per_row=*/false, [&](const i8::Epilogue& ep) {
    i8::gemm_b_packed(x.data(), *pb, out.data(), rows, ep, /*threaded=*/true);
  });
}

IntAddOp::IntAddOp(std::int64_t out_min, std::int64_t out_max)
    : out_min_(out_min), out_max_(out_max) {}

ITensor IntAddOp::run(const std::vector<const ITensor*>& ins) const {
  check(ins.size() == 2 && ins[0] != nullptr && ins[1] != nullptr,
        "IntAdd: expects two inputs");
  const ITensor& a = *ins[0];
  const ITensor& b = *ins[1];
  check(a.same_shape(b), "IntAdd: shape mismatch");
  ITensor out(a.shape());
  compute(a, b, out);
  return out;
}

void IntAddOp::run_into(const std::vector<const ITensor*>& ins,
                        ITensor& out) const {
  check(ins.size() == 2 && ins[0] != nullptr && ins[1] != nullptr,
        "IntAdd: expects two inputs");
  const ITensor& a = *ins[0];
  const ITensor& b = *ins[1];
  check(a.same_shape(b), "IntAdd: shape mismatch");
  if (&out == &b && &out != &a) {
    out = run(ins);  // planner never aliases operand 1; stay safe anyway
    return;
  }
  recycle_tensor(out, a.shape());
  compute(a, b, out);
}

void IntAddOp::compute(const ITensor& a, const ITensor& b,
                       ITensor& out) const {
  const rq::Clip clip{out_min_, out_max_, counting_sats()};
  std::atomic<std::int64_t> sats{0};
  par::parallel_for(0, a.numel(), kElemGrain,
                    [&](std::int64_t i0, std::int64_t i1) {
                      std::int64_t sat = 0;
#if T2C_AVX512_LANES
                      if (rq::avx512_tier()) {
                        add_span_avx512(a.data() + i0, b.data() + i0,
                                        out.data() + i0, i1 - i0, clip, sat);
                        rq::add_sats(&sats, sat);
                        return;
                      }
#endif
                      for (std::int64_t i = i0; i < i1; ++i) {
                        out[i] = rq::clip1(rq::wrap_add(a[i], b[i]), clip, sat);
                      }
                      rq::add_sats(&sats, sat);
                    });
  if (clip.count) {
    sat_cache_.add("IntAdd", label, sats.load(std::memory_order_relaxed));
  }
}

IntMaxPool2dOp::IntMaxPool2dOp(int kernel, int stride, int padding)
    : kernel_(kernel), stride_(stride), padding_(padding) {
  check(kernel > 0 && stride > 0 && padding >= 0, "IntMaxPool2d: geometry");
}

ITensor IntMaxPool2dOp::run(const std::vector<const ITensor*>& ins) const {
  const ITensor& x = only_input(ins, "IntMaxPool2d");
  check(x.rank() == 4, "IntMaxPool2d: input must be NCHW");
  const std::int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const std::int64_t oh = (h + 2 * padding_ - kernel_) / stride_ + 1;
  const std::int64_t ow = (w + 2 * padding_ - kernel_) / stride_ + 1;
  check(oh > 0 && ow > 0, "IntMaxPool2d: output would be empty");
  ITensor out({n, c, oh, ow});
  // One task per (image, channel) plane; max is order-independent.
  par::parallel_for(
      0, n * c, std::max<std::int64_t>(1, kElemGrain / (oh * ow)),
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t* plane = x.data() + p * h * w;
          std::int64_t oidx = p * oh * ow;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox, ++oidx) {
              std::int64_t best = std::numeric_limits<std::int64_t>::min();
              for (int ki = 0; ki < kernel_; ++ki) {
                const std::int64_t iy = oy * stride_ + ki - padding_;
                if (iy < 0 || iy >= h) continue;
                for (int kj = 0; kj < kernel_; ++kj) {
                  const std::int64_t ix = ox * stride_ + kj - padding_;
                  if (ix < 0 || ix >= w) continue;
                  best = std::max(best, plane[iy * w + ix]);
                }
              }
              out[oidx] =
                  best == std::numeric_limits<std::int64_t>::min() ? 0 : best;
            }
          }
        }
      });
  return out;
}

IntGlobalAvgPoolOp::IntGlobalAvgPoolOp(std::int64_t mul, int frac_bits,
                                       std::int64_t out_min,
                                       std::int64_t out_max)
    : mul_(mul), frac_bits_(frac_bits), out_min_(out_min), out_max_(out_max) {
  check(frac_bits >= 0 && frac_bits < 40, "IntGlobalAvgPool: bad frac_bits");
}

ITensor IntGlobalAvgPoolOp::run(const std::vector<const ITensor*>& ins) const {
  const ITensor& x = only_input(ins, "IntGlobalAvgPool");
  check(x.rank() == 4, "IntGlobalAvgPool: input must be NCHW");
  const std::int64_t n = x.size(0), c = x.size(1), hw = x.size(2) * x.size(3);
  ITensor out({n, c});
  check(hw > 0, "IntGlobalAvgPool: empty spatial extent (H*W == 0)");
  const std::int64_t half = rq::round_half(frac_bits_);
  const rq::Clip clip{out_min_, out_max_, counting_sats()};
  std::atomic<std::int64_t> sats{0};
  par::parallel_for(
      0, n * c, std::max<std::int64_t>(1, kElemGrain / hw),
      [&](std::int64_t p0, std::int64_t p1) {
        std::int64_t sat = 0;
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t* plane = x.data() + p * hw;
          std::int64_t acc = 0;
          for (std::int64_t i = 0; i < hw; ++i) {
            acc = rq::wrap_add(acc, plane[i]);
          }
          out[p] = rq::requant1(acc, mul_, 0, half, frac_bits_, 0, clip, sat);
        }
        rq::add_sats(&sats, sat);
      });
  if (clip.count) {
    sat_cache_.add("IntGlobalAvgPool", label,
                   sats.load(std::memory_order_relaxed));
  }
  return out;
}

ITensor TokenizeOp::run(const std::vector<const ITensor*>& ins) const {
  const ITensor& x = only_input(ins, "Tokenize");
  check(x.rank() == 4, "Tokenize: input must be NCHW");
  const std::int64_t n = x.size(0), c = x.size(1), hw = x.size(2) * x.size(3);
  ITensor out({n, hw, c});
  par::parallel_for(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t in = n0; in < n1; ++in) {
      for (std::int64_t ic = 0; ic < c; ++ic) {
        for (std::int64_t t = 0; t < hw; ++t) {
          out[(in * hw + t) * c + ic] = x[(in * c + ic) * hw + t];
        }
      }
    }
  });
  return out;
}

IntMeanPoolTokensOp::IntMeanPoolTokensOp(std::int64_t mul, int frac_bits,
                                         std::int64_t out_min,
                                         std::int64_t out_max)
    : mul_(mul), frac_bits_(frac_bits), out_min_(out_min), out_max_(out_max) {
  check(frac_bits >= 0 && frac_bits < 40, "IntMeanPoolTokens: bad frac_bits");
}

ITensor IntMeanPoolTokensOp::run(
    const std::vector<const ITensor*>& ins) const {
  const ITensor& x = only_input(ins, "IntMeanPoolTokens");
  check(x.rank() == 3, "IntMeanPoolTokens: input must be [N,T,D]");
  const std::int64_t n = x.size(0), t = x.size(1), d = x.size(2);
  check(t > 0, "IntMeanPoolTokens: no tokens to pool (T == 0)");
  ITensor out({n, d});
  const std::int64_t half = rq::round_half(frac_bits_);
  const rq::Clip clip{out_min_, out_max_, counting_sats()};
  std::atomic<std::int64_t> sats{0};
  par::parallel_for(
      0, n * d, std::max<std::int64_t>(1, kElemGrain / t),
      [&](std::int64_t p0, std::int64_t p1) {
        std::int64_t sat = 0;
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t in = p / d, i = p % d;
          std::int64_t acc = 0;
          for (std::int64_t it = 0; it < t; ++it) {
            acc = rq::wrap_add(acc, x[(in * t + it) * d + i]);
          }
          out[p] = rq::requant1(acc, mul_, 0, half, frac_bits_, 0, clip, sat);
        }
        rq::add_sats(&sats, sat);
      });
  if (clip.count) {
    sat_cache_.add("IntMeanPoolTokens", label,
                   sats.load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace t2c

// ---- checkpoint serialization ----

namespace t2c {

void MulQuantOp::save_params(std::string& out) const {
  textio::put_line(out,
                   {out_min_, out_max_, static_cast<int>(layout_), bias_frac_});
  textio::put_vec(out, mul_);
  textio::put_vec(out, bias_);
  textio::put_vec(out, frac_);
}

void IntConv2dOp::save_params(std::string& out) const {
  textio::put_line(out, {spec_.in_channels, spec_.out_channels, spec_.kernel,
                         spec_.stride, spec_.padding, spec_.groups});
  textio::put_tensor(out, weight_.shape(), weight_.vec(),
                     required_word_bits(facts_.lo, facts_.hi));
}

void IntLinearOp::save_params(std::string& out) const {
  textio::put_tensor(out, weight_.shape(), weight_.vec(),
                     required_word_bits(facts_.lo, facts_.hi));
}

void IntAddOp::save_params(std::string& out) const {
  textio::put_line(out, {out_min_, out_max_});
}

void IntMaxPool2dOp::save_params(std::string& out) const {
  textio::put_line(out, {kernel_, stride_, padding_});
}

void IntGlobalAvgPoolOp::save_params(std::string& out) const {
  textio::put_line(out, {mul_, frac_bits_, out_min_, out_max_});
}

void TokenizeOp::save_params(std::string& out) const {
  textio::put_line(out, {});
}

void IntMeanPoolTokensOp::save_params(std::string& out) const {
  textio::put_line(out, {mul_, frac_bits_, out_min_, out_max_});
}

}  // namespace t2c

// ---- profiling cost models (DESIGN.md §3.8) ----
//
// Everything here is derived from operand/output shapes and static op
// parameters, so the numbers are bit-identical at any T2C_THREADS. Lanes
// are int64 throughout the deploy path: traffic = numel * 8 bytes, with
// parameter vectors / LUTs counted as read once per call. A MAC counts as
// one mac plus two flops (multiply + accumulate).

namespace t2c {

namespace {

std::int64_t lane_bytes(std::int64_t elems) {
  return elems * static_cast<std::int64_t>(sizeof(std::int64_t));
}

std::int64_t operand_bytes(const std::vector<const ITensor*>& ins) {
  std::int64_t b = 0;
  for (const ITensor* t : ins) b += lane_bytes(t->numel());
  return b;
}

}  // namespace

obs::OpCost MulQuantOp::cost(const std::vector<const ITensor*>& ins,
                             const ITensor& out) const {
  // Per element: multiply, bias add, round-shift (clamp is free compare).
  obs::OpCost c;
  const std::int64_t n = out.numel();
  c.macs = n;
  c.flops = 3 * n;
  c.bytes_read =
      operand_bytes(ins) +
      lane_bytes(static_cast<std::int64_t>(mul_.size() + bias_.size()));
  c.bytes_written = lane_bytes(n);
  return c;
}

// GEMM-backed ops model the packed execution actually performed, not an
// abstract dense pass (DESIGN.md §3.8/§3.11):
//   * a conv fills each patch panel straight from x (written once, read
//     back by the GEMM) — except on the direct depthwise kernels, which
//     have none;
//   * packed panels are streamed from cache across every row block, so
//     each panel counts ONCE, not once per block (packed-panel reuse);
//   * the int8 kernels move 2-byte lanes for packed operands and skip the
//     per-run weight pack entirely (weights are prepacked at plan compile);
//   * a fused epilogue adds the MulQuant's work here because the separate
//     MulQuant step is skipped and reports zero.
obs::OpCost IntConv2dOp::cost(const std::vector<const ITensor*>& ins,
                              const ITensor& out) const {
  obs::OpCost c;
  const std::int64_t k = spec_.kernel;
  const std::int64_t ic_g = spec_.in_channels / spec_.groups;
  c.macs = out.numel() * ic_g * k * k;
  c.flops = 2 * c.macs;
  // Patch-matrix elements across all (image, group) tasks.
  const std::int64_t ohw = out.size(2) * out.size(3);
  const std::int64_t cols =
      ins[0]->size(0) * spec_.in_channels * k * k * ohw;
  if (choice_.i8) {
    // Packed GEMM: im2col reads x (i64) and writes int16 panels directly,
    // the kernel reads each panel back once and streams the prepacked
    // int16 weight blocks once. Direct kernel: each plane reads its input
    // channels once (the padded int32 copy stays in cache) plus the int16
    // weight rows — no patch traffic at all.
    const std::int64_t patches = direct() ? 0 : 2 * cols;
    c.bytes_read =
        lane_bytes(ins[0]->numel()) + patches + 2 * weight_.numel();
    c.bytes_written = lane_bytes(out.numel()) + patches;
    if (choice_.fuse) {
      c.macs += out.numel();
      c.flops += 3 * out.numel();
    }
  } else {
    // i64 conv: each int64 panel is filled straight from x, then streamed
    // once by the register tile, which reads the weights in place. The
    // direct depthwise loop (one input and one output channel per group)
    // has no panel.
    const bool dw = spec_.groups == spec_.in_channels &&
                    spec_.groups == spec_.out_channels;
    const std::int64_t panels = dw ? 0 : cols;
    c.bytes_read = lane_bytes(ins[0]->numel() + panels + weight_.numel());
    c.bytes_written = lane_bytes(out.numel() + panels);
  }
  return c;
}

obs::OpCost IntLinearOp::cost(const std::vector<const ITensor*>& ins,
                              const ITensor& out) const {
  obs::OpCost c;
  const std::int64_t in = weight_.size(1);
  const std::int64_t rows = ins[0]->numel() / in;
  c.macs = rows * weight_.size(0) * in;
  c.flops = 2 * c.macs;
  if (choice_.i8) {
    // Activations narrowed on the fly; weight panels prepacked int16 and
    // streamed once (panel reuse across row blocks hits cache).
    c.bytes_read = lane_bytes(ins[0]->numel()) + 2 * weight_.numel();
    c.bytes_written = lane_bytes(out.numel());
    if (choice_.fuse) {
      c.macs += out.numel();
      c.flops += 3 * out.numel();
    }
  } else {
    // Weights read once by the panel pack, panels written then streamed
    // once from cache across all row blocks.
    c.bytes_read = lane_bytes(ins[0]->numel() + weight_.numel());
    c.bytes_written = lane_bytes(out.numel() + weight_.numel());
  }
  return c;
}

obs::OpCost IntMaxPool2dOp::cost(const std::vector<const ITensor*>& ins,
                                 const ITensor& out) const {
  // One compare per window element.
  obs::OpCost c;
  c.flops = out.numel() * static_cast<std::int64_t>(kernel_) * kernel_;
  c.bytes_read = operand_bytes(ins);
  c.bytes_written = lane_bytes(out.numel());
  return c;
}

obs::OpCost IntGlobalAvgPoolOp::cost(const std::vector<const ITensor*>& ins,
                                     const ITensor& out) const {
  // Sum every input element, then one fused requant per output.
  obs::OpCost c;
  c.macs = out.numel();
  c.flops = ins[0]->numel() + 2 * out.numel();
  c.bytes_read = operand_bytes(ins);
  c.bytes_written = lane_bytes(out.numel());
  return c;
}

obs::OpCost TokenizeOp::cost(const std::vector<const ITensor*>& ins,
                             const ITensor& out) const {
  // Pure data movement (NCHW -> [N, T, C] permutation).
  obs::OpCost c;
  c.bytes_read = operand_bytes(ins);
  c.bytes_written = lane_bytes(out.numel());
  return c;
}

obs::OpCost IntMeanPoolTokensOp::cost(const std::vector<const ITensor*>& ins,
                                      const ITensor& out) const {
  obs::OpCost c;
  c.macs = out.numel();
  c.flops = ins[0]->numel() + 2 * out.numel();
  c.bytes_read = operand_bytes(ins);
  c.bytes_written = lane_bytes(out.numel());
  return c;
}

}  // namespace t2c
