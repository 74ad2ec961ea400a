#include "deploy/vit_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__x86_64__)
#include <emmintrin.h>  // SSE2: baseline on x86_64, no dispatch needed
#if defined(__GNUC__) || defined(__clang__)
#define T2C_LN_AVX512 1
#include <immintrin.h>
#endif
#endif
#ifndef T2C_LN_AVX512
#define T2C_LN_AVX512 0
#endif

#include "core/parallel.h"
#include "nn/activations.h"
#include "util/cpuinfo.h"
#include "util/textio.h"

namespace t2c {

namespace {

// Minimum elements per chunk for element-wise sweeps (same rationale as
// int_ops.cpp): below this, partitioning overhead dwarfs the work.
constexpr std::int64_t kElemGrain = 4096;

/// Per-thread scratch of the narrow attention path, grown on demand and
/// kept for the thread's lifetime, so a steady-state call allocates
/// nothing. The calling thread's int16 streams (qkv, ctx) and each
/// worker's per-query rows (logits, exp values, probabilities) are
/// separate buffers, so the calling thread can run chunks too.
struct AttnScratch {
  std::vector<std::int16_t> qkv, ctx, probs;
  std::vector<std::int32_t> logits;
  std::vector<std::int64_t> expv;
};

AttnScratch& attn_scratch() {
  thread_local AttnScratch s;
  return s;
}

/// v's storage with at least n lanes; stale contents are kept.
template <typename T>
T* grown(std::vector<T>& v, std::int64_t n) {
  if (v.size() < static_cast<std::size_t>(n)) {
    v.resize(static_cast<std::size_t>(n));
  }
  return v.data();
}

std::int64_t clamp64(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return std::min(hi, std::max(lo, v));
}

/// Integer square root (floor), Newton's method.
std::int64_t isqrt64(std::int64_t v) {
  if (v <= 0) return 0;
  auto x = static_cast<std::int64_t>(std::sqrt(static_cast<double>(v)));
  // Fix up double imprecision.
  while (x > 0 && x * x > v) --x;
  while ((x + 1) * (x + 1) <= v) ++x;
  return x;
}

#if T2C_LN_AVX512
// Same -Wmaybe-uninitialized false positive on _mm*_maskz_* as
// tensor/int8_gemm.cpp; the masked-lane zeroing is architectural.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// AVX-512 running-statistics LayerNorm row: xhat plus the fused affine
/// requant, 8 lanes per step. vpmullq / vpsravq carry the exact 64-bit
/// wrap semantics of the scalar loop, so the bits are identical.
__attribute__((target("avx512f,avx512dq,avx512vl"))) void ln_row_avx512(
    const std::int64_t* px, std::int64_t* po, std::int64_t d,
    std::int64_t mean, std::int64_t inv_sigma, int sh,
    const std::int64_t* gamma, const std::int64_t* beta, int f,
    std::int64_t half2f, std::int64_t lo, std::int64_t hi) {
  const __m512i vmean = _mm512_set1_epi64(mean);
  const __m512i vsig = _mm512_set1_epi64(inv_sigma);
  const __m512i vhalf = _mm512_set1_epi64(half2f);
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vhi = _mm512_set1_epi64(hi);
  for (std::int64_t i = 0; i < d; i += 8) {
    const auto m = static_cast<__mmask8>(
        d - i >= 8 ? 0xff : (1u << (d - i)) - 1u);
    const __m512i v = _mm512_maskz_loadu_epi64(m, px + i);
    const __m512i xhat = _mm512_srai_epi64(
        _mm512_mullo_epi64(_mm512_sub_epi64(v, vmean), vsig),
        static_cast<unsigned>(sh));
    const __m512i vg = _mm512_maskz_loadu_epi64(m, gamma + i);
    const __m512i vb = _mm512_slli_epi64(
        _mm512_maskz_loadu_epi64(m, beta + i), static_cast<unsigned>(f));
    const __m512i y = _mm512_srai_epi64(
        _mm512_add_epi64(_mm512_add_epi64(_mm512_mullo_epi64(vg, xhat), vb),
                         vhalf),
        static_cast<unsigned>(2 * f));
    _mm512_mask_storeu_epi64(
        po + i, m, _mm512_min_epi64(vhi, _mm512_max_epi64(vlo, y)));
  }
}

#pragma GCC diagnostic pop

bool ln_avx512() {
  return util::cpu_isa_tier() >= util::IsaTier::kAvx512;
}
#endif

}  // namespace

std::vector<std::int64_t> build_exp_lut(float in_scale, int lut_size,
                                        int prob_bits) {
  check(lut_size >= 2, "build_exp_lut: need at least 2 entries");
  check(prob_bits > 0 && prob_bits < 31, "build_exp_lut: bad prob_bits");
  check(in_scale > 0.0F, "build_exp_lut: input scale must be positive");
  std::vector<std::int64_t> lut(static_cast<std::size_t>(lut_size));
  const double unit = std::ldexp(1.0, prob_bits);
  for (int i = 0; i < lut_size; ++i) {
    lut[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(
        std::llround(std::exp(-static_cast<double>(i) * in_scale) * unit));
  }
  return lut;
}

std::vector<std::int64_t> build_gelu_lut(float in_scale, std::int64_t in_min,
                                         std::int64_t in_max, float out_scale,
                                         std::int64_t out_min,
                                         std::int64_t out_max, int lut_size,
                                         std::int64_t& index_step) {
  check(in_max > in_min, "build_gelu_lut: empty input range");
  check(lut_size >= 2, "build_gelu_lut: need at least 2 entries");
  const std::int64_t range = in_max - in_min;
  index_step = std::max<std::int64_t>(
      1, (range + lut_size - 1) / static_cast<std::int64_t>(lut_size - 1));
  const auto entries =
      static_cast<std::size_t>(range / index_step + 1);
  std::vector<std::int64_t> lut(entries);
  for (std::size_t j = 0; j < entries; ++j) {
    const std::int64_t q_in =
        in_min + static_cast<std::int64_t>(j) * index_step;
    const float x = static_cast<float>(q_in) * in_scale;
    const float y = gelu_value(x);
    lut[j] = clamp64(static_cast<std::int64_t>(
                         std::llround(y / out_scale)),
                     out_min, out_max);
  }
  return lut;
}

LutSoftmaxOp::LutSoftmaxOp(std::vector<std::int64_t> lut, std::int64_t p_qmax)
    : lut_(std::move(lut)), p_qmax_(p_qmax) {
  check(lut_.size() >= 2, "LutSoftmaxOp: LUT too small");
  check(p_qmax > 0, "LutSoftmaxOp: p_qmax must be positive");
}

ITensor LutSoftmaxOp::run(const std::vector<const ITensor*>& ins) const {
  check(ins.size() == 1 && ins[0] != nullptr, "LutSoftmax: one input");
  const ITensor& x = *ins[0];
  const std::int64_t d = x.size(x.rank() - 1);
  check(d > 0, "LutSoftmax: empty softmax axis (last dim == 0)");
  const std::int64_t rows = x.numel() / d;
  const auto last = static_cast<std::int64_t>(lut_.size()) - 1;
  ITensor out(x.shape());
  // Rows are independent; the exp scratch lives per chunk, not per row.
  par::parallel_for(
      0, rows, std::max<std::int64_t>(1, kElemGrain / d),
      [&](std::int64_t r0, std::int64_t r1) {
        std::vector<std::int64_t> e(static_cast<std::size_t>(d));
        for (std::int64_t r = r0; r < r1; ++r) {
          const std::int64_t* px = x.data() + r * d;
          std::int64_t m = px[0];
          for (std::int64_t i = 1; i < d; ++i) m = std::max(m, px[i]);
          std::int64_t sum = 0;
          for (std::int64_t i = 0; i < d; ++i) {
            const std::int64_t idx = std::min(last, m - px[i]);
            e[static_cast<std::size_t>(i)] =
                lut_[static_cast<std::size_t>(idx)];
            sum += e[static_cast<std::size_t>(i)];
          }
          std::int64_t* po = out.data() + r * d;
          for (std::int64_t i = 0; i < d; ++i) {
            // Integer divide with rounding: p = e * qmax / sum.
            po[i] = sum > 0 ? (e[static_cast<std::size_t>(i)] * p_qmax_ +
                               sum / 2) /
                                  sum
                            : 0;
          }
        }
      });
  return out;
}

LutGeluOp::LutGeluOp(std::vector<std::int64_t> lut, std::int64_t in_min,
                     std::int64_t in_max, std::int64_t index_step)
    : lut_(std::move(lut)),
      in_min_(in_min),
      in_max_(in_max),
      index_step_(index_step) {
  check(!lut_.empty() && index_step >= 1, "LutGeluOp: bad parameters");
}

ITensor LutGeluOp::run(const std::vector<const ITensor*>& ins) const {
  check(ins.size() == 1 && ins[0] != nullptr, "LutGelu: one input");
  const ITensor& x = *ins[0];
  ITensor out(x.shape());
  compute(x, out);
  return out;
}

void LutGeluOp::run_into(const std::vector<const ITensor*>& ins,
                         ITensor& out) const {
  check(ins.size() == 1 && ins[0] != nullptr, "LutGelu: one input");
  const ITensor& x = *ins[0];
  recycle_tensor(out, x.shape());
  compute(x, out);
}

void LutGeluOp::compute(const ITensor& x, ITensor& out) const {
  const auto last = static_cast<std::int64_t>(lut_.size()) - 1;
  // Nearest-entry index = (q - in_min + step/2) / step, computed via a
  // double reciprocal plus an exact one-off fixup (the numerator is far
  // below 2^53, so the estimate is within one of the true quotient) —
  // identical indices to the hardware division at a fraction of the cost.
  const double rstep = 1.0 / static_cast<double>(index_step_);
  const std::int64_t h2 = index_step_ / 2;
  par::parallel_for(0, x.numel(), kElemGrain,
                    [&](std::int64_t i0, std::int64_t i1) {
                      for (std::int64_t i = i0; i < i1; ++i) {
                        const std::int64_t q = clamp64(x[i], in_min_, in_max_);
                        const std::int64_t num = q - in_min_ + h2;
                        auto idx = static_cast<std::int64_t>(
                            static_cast<double>(num) * rstep);
                        if ((idx + 1) * index_step_ <= num) {
                          ++idx;
                        } else if (idx * index_step_ > num) {
                          --idx;
                        }
                        out[i] = lut_[static_cast<std::size_t>(
                            clamp64(idx, 0, last))];
                      }
                    });
}

IntLayerNormOp::IntLayerNormOp(std::vector<std::int64_t> gamma_fx,
                               std::vector<std::int64_t> beta_fx,
                               int frac_bits, std::int64_t out_min,
                               std::int64_t out_max)
    : gamma_fx_(std::move(gamma_fx)),
      beta_fx_(std::move(beta_fx)),
      frac_bits_(frac_bits),
      out_min_(out_min),
      out_max_(out_max) {
  check(!gamma_fx_.empty() && gamma_fx_.size() == beta_fx_.size(),
        "IntLayerNormOp: gamma/beta size mismatch");
  check(frac_bits > 0 && frac_bits < 20, "IntLayerNormOp: bad frac_bits");
}

IntLayerNormOp::IntLayerNormOp(std::vector<std::int64_t> gamma_fx,
                               std::vector<std::int64_t> beta_fx,
                               int frac_bits, std::int64_t out_min,
                               std::int64_t out_max, std::int64_t mean_int,
                               std::int64_t inv_sigma_fx, int stat_frac)
    : IntLayerNormOp(std::move(gamma_fx), std::move(beta_fx), frac_bits,
                     out_min, out_max) {
  running_ = true;
  mean_int_ = mean_int;
  inv_sigma_fx_ = inv_sigma_fx;
  stat_frac_ = stat_frac;
  check(stat_frac >= frac_bits, "IntLayerNormOp: stat_frac < frac_bits");
}

ITensor IntLayerNormOp::run(const std::vector<const ITensor*>& ins) const {
  check(ins.size() == 1 && ins[0] != nullptr, "IntLayerNorm: one input");
  const ITensor& x = *ins[0];
  const auto d = static_cast<std::int64_t>(gamma_fx_.size());
  check(x.size(x.rank() - 1) == d, "IntLayerNorm: dim mismatch");
  const std::int64_t rows = x.numel() / d;
  ITensor out(x.shape());
  const int f = frac_bits_;
  const std::int64_t half2f = std::int64_t{1} << (2 * f - 1);
  constexpr int kG = 10;  // variance headroom bits for the instant isqrt
  // Every row's statistics come from that row alone, so the row sweep
  // parallelizes without touching the accumulation order.
  par::parallel_for(
      0, rows, std::max<std::int64_t>(1, kElemGrain / d),
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const std::int64_t* px = x.data() + r * d;
          std::int64_t* po = out.data() + r * d;
          if (running_) {
            // Running statistics: xhat and the affine requant fuse into a
            // single branch-free pass over the row.
            const int sh = stat_frac_ - f;
#if T2C_LN_AVX512
            if (ln_avx512()) {
              ln_row_avx512(px, po, d, mean_int_, inv_sigma_fx_, sh,
                            gamma_fx_.data(), beta_fx_.data(), f, half2f,
                            out_min_, out_max_);
              continue;
            }
#endif
            for (std::int64_t i = 0; i < d; ++i) {
              const std::int64_t xhat_f =
                  ((px[i] - mean_int_) * inv_sigma_fx_) >> sh;
              const std::int64_t y =
                  (gamma_fx_[static_cast<std::size_t>(i)] * xhat_f +
                   (beta_fx_[static_cast<std::size_t>(i)] << f) + half2f) >>
                  (2 * f);
              po[i] = clamp64(y, out_min_, out_max_);
            }
            continue;
          }
          // Instant statistics: integer mean/variance over the row.
          std::int64_t sum = 0;
          for (std::int64_t i = 0; i < d; ++i) sum += px[i];
          const std::int64_t mean = (2 * sum + d) / (2 * d);  // round-nearest
          std::int64_t var_sum = 0;
          for (std::int64_t i = 0; i < d; ++i) {
            const std::int64_t dv = px[i] - mean;
            var_sum += dv * dv;
          }
          const std::int64_t var = var_sum / d;
          const std::int64_t sq = std::max<std::int64_t>(
              1, isqrt64(var << (2 * kG)));  // sqrt(var) << kG
          for (std::int64_t i = 0; i < d; ++i) {
            const std::int64_t xhat_f =
                ((px[i] - mean) << (f + kG)) / sq;  // xhat * 2^f
            const std::int64_t y =
                (gamma_fx_[static_cast<std::size_t>(i)] * xhat_f +
                 (beta_fx_[static_cast<std::size_t>(i)] << f) + half2f) >>
                (2 * f);
            po[i] = clamp64(y, out_min_, out_max_);
          }
        }
      });
  return out;
}

IntAttentionOp::IntAttentionOp(IntAttentionParams params)
    : p_(std::move(params)) {
  check(p_.wqkv.rank() == 2 && p_.wproj.rank() == 2,
        "IntAttentionOp: projection weights must be rank-2");
  const std::int64_t d = p_.wqkv.size(1);
  check(p_.wqkv.size(0) == 3 * d, "IntAttentionOp: wqkv must be [3D, D]");
  check(p_.wproj.size(0) == d && p_.wproj.size(1) == d,
        "IntAttentionOp: wproj must be [D, D]");
  check(d % p_.heads == 0, "IntAttentionOp: heads must divide dim");
  check(p_.qkv_mul.size() == static_cast<std::size_t>(3 * d) &&
            p_.qkv_bias.size() == p_.qkv_mul.size(),
        "IntAttentionOp: qkv requant arity mismatch");
  check(p_.proj_mul.size() == static_cast<std::size_t>(d) &&
            p_.proj_bias.size() == p_.proj_mul.size(),
        "IntAttentionOp: proj requant arity mismatch");
  check(!p_.softmax_lut.empty(), "IntAttentionOp: missing softmax LUT");
  wqkv_facts_ = WeightFacts::scan(p_.wqkv);
  wproj_facts_ = WeightFacts::scan(p_.wproj);
  // Both projections consume W as B^T ([rows=out, cols=in] row-major), the
  // same orientation IntLinearOp packs. Panels are only built when the
  // weights fit int16; whether they are ever used is decided by the solver
  // registry once the pass proves an input bound.
  if (wqkv_facts_.abs_max() <= i8::kOperandMax &&
      wproj_facts_.abs_max() <= i8::kOperandMax) {
    pbqkv_ = i8::pack_b(p_.wqkv.data(), d, 3 * d, /*trans_b=*/true);
    pbproj_ = i8::pack_b(p_.wproj.data(), d, d, /*trans_b=*/true);
  }
  set_input_bound(0);  // seed choice_ with the int64 fallback
}

bool IntAttentionOp::static_i16_ok() const {
  if (pbqkv_ == nullptr) return false;
  const std::int64_t d = p_.wqkv.size(1);
  const std::int64_t dh = d / p_.heads;
  const std::int64_t sb = abs_bound(p_.stream_min, p_.stream_max);
  const std::int64_t cb = abs_bound(p_.ctx_min, p_.ctx_max);
  return sb <= i8::kOperandMax &&
         i8::accum_fits_i32(dh, sb, sb) &&                 // q * k^T logits
         p_.p_qmax <= i8::kOperandMax &&                   // probs as int16
         cb <= i8::kOperandMax &&
         i8::accum_fits_i32(d, cb, wproj_facts_.abs_max());  // out projection
}

void IntAttentionOp::set_input_bound(std::int64_t bound) {
  input_bound_ = bound;
  const std::int64_t d = p_.wqkv.size(1);
  solver::Problem p;
  p.op = solver::OpKind::kAttnInt;
  p.k = d;
  p.a_max = bound;
  p.w_max = wqkv_facts_.abs_max();
  p.aux_ok = static_i16_ok();
  choice_ = solver::Registry::instance().choose(p);
}

std::string IntAttentionOp::kernel() const { return choice_.name; }

ITensor IntAttentionOp::run(const std::vector<const ITensor*>& ins) const {
  ITensor out;
  run_into(ins, out);
  return out;
}

void IntAttentionOp::run_into(const std::vector<const ITensor*>& ins,
                              ITensor& out) const {
  check(ins.size() == 1 && ins[0] != nullptr, "IntAttention: one input");
  const ITensor& x = *ins[0];
  check(x.rank() == 3, "IntAttention: input must be [N,T,D]");
  recycle_tensor(out, x.shape());
  // The p*v accumulation depth is the (runtime) token count, so its int32
  // bound is the one eligibility term checked per run.
  if (choice_.i8 &&
      i8::accum_fits_i32(x.size(1), p_.p_qmax,
                         abs_bound(p_.stream_min, p_.stream_max))) {
    run_i16(x, out);
    return;
  }
  const std::int64_t n = x.size(0), t = x.size(1), d = x.size(2);
  const std::int64_t h = p_.heads, dh = d / h;
  const int f = p_.frac_bits;
  const int bf = p_.bias_frac;
  const std::int64_t half = std::int64_t{1} << (f - 1);
  const std::int64_t bhalf = std::int64_t{1} << (f + bf - 1);

  // 1. qkv projection + per-output-channel requant to the stream grids.
  // Each (sample, token) row is one task; the k-loop stays ascending per
  // output element, so the split never changes the accumulation order.
  ITensor qkv({n, t, 3 * d});
  par::parallel_for(0, n * t, 1, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const std::int64_t* row = x.data() + r * d;
      std::int64_t* orow = qkv.data() + r * 3 * d;
      for (std::int64_t j = 0; j < 3 * d; ++j) {
        const std::int64_t* w = p_.wqkv.data() + j * d;
        std::int64_t acc = 0;
        for (std::int64_t k = 0; k < d; ++k) acc += row[k] * w[k];
        const std::int64_t y =
            (p_.qkv_mul[static_cast<std::size_t>(j)] *
                 ((acc << bf) + p_.qkv_bias[static_cast<std::size_t>(j)]) +
             bhalf) >>
            (f + bf);
        orow[j] = clamp64(y, p_.stream_min, p_.stream_max);
      }
    }
  });

  // 2-5. per (sample, head): logits, LUT softmax, context. Parallel over
  // the (sample, head) pairs; logit/prob scratch lives per chunk.
  const auto last = static_cast<std::int64_t>(p_.softmax_lut.size()) - 1;
  ITensor ctx({n, t, d});
  par::parallel_for(0, n * h, 1, [&](std::int64_t p0, std::int64_t p1) {
    std::vector<std::int64_t> logits(static_cast<std::size_t>(t));
    std::vector<std::int64_t> probs(static_cast<std::size_t>(t));
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t in = p / h, ih = p % h;
      for (std::int64_t iq = 0; iq < t; ++iq) {
        const std::int64_t* qrow =
            qkv.data() + (in * t + iq) * 3 * d + 0 * d + ih * dh;
        // logits over keys
        std::int64_t m = std::numeric_limits<std::int64_t>::min();
        for (std::int64_t ik = 0; ik < t; ++ik) {
          const std::int64_t* krow =
              qkv.data() + (in * t + ik) * 3 * d + 1 * d + ih * dh;
          std::int64_t acc = 0;
          for (std::int64_t e = 0; e < dh; ++e) acc += qrow[e] * krow[e];
          logits[static_cast<std::size_t>(ik)] = acc;
          m = std::max(m, acc);
        }
        // LUT softmax: rescale the logit difference onto the LUT grid.
        std::int64_t sum = 0;
        for (std::int64_t ik = 0; ik < t; ++ik) {
          const std::int64_t diff =
              m - logits[static_cast<std::size_t>(ik)];
          const std::int64_t idx =
              std::min(last, (p_.logit_mul * diff + half) >> f);
          probs[static_cast<std::size_t>(ik)] =
              p_.softmax_lut[static_cast<std::size_t>(idx)];
          sum += probs[static_cast<std::size_t>(ik)];
        }
        for (std::int64_t ik = 0; ik < t; ++ik) {
          probs[static_cast<std::size_t>(ik)] =
              sum > 0 ? (probs[static_cast<std::size_t>(ik)] * p_.p_qmax +
                         sum / 2) /
                            sum
                      : 0;
        }
        // context = p * v, then scalar requant
        for (std::int64_t e = 0; e < dh; ++e) {
          std::int64_t acc = 0;
          for (std::int64_t ik = 0; ik < t; ++ik) {
            const std::int64_t v =
                qkv[(in * t + ik) * 3 * d + 2 * d + ih * dh + e];
            acc += probs[static_cast<std::size_t>(ik)] * v;
          }
          const std::int64_t y = (p_.ctx_mul * acc + half) >> f;
          ctx[(in * t + iq) * d + ih * dh + e] =
              clamp64(y, p_.ctx_min, p_.ctx_max);
        }
      }
    }
  });

  // 6. output projection + requant to the residual-stream grid.
  par::parallel_for(0, n * t, 1, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const std::int64_t* row = ctx.data() + r * d;
      std::int64_t* orow = out.data() + r * d;
      for (std::int64_t j = 0; j < d; ++j) {
        const std::int64_t* w = p_.wproj.data() + j * d;
        std::int64_t acc = 0;
        for (std::int64_t k = 0; k < d; ++k) acc += row[k] * w[k];
        const std::int64_t y =
            (p_.proj_mul[static_cast<std::size_t>(j)] *
                 ((acc << bf) + p_.proj_bias[static_cast<std::size_t>(j)]) +
             bhalf) >>
            (f + bf);
        orow[j] = clamp64(y, p_.out_min, p_.out_max);
      }
    }
  });
}

// Narrow-lane twin of run(): identical stage structure and identical
// values at every stage. The projections run through the prepacked int16
// panels with the per-stream requant fused into the epilogue (the epilogue
// arithmetic is MulQuantOp's, and uniform frac0 = frac_bits + bias_frac
// reproduces the bhalf rounding term of the hand loop above); the
// logits/softmax/context stages keep the loop order and the int64 softmax
// arithmetic, narrowing only the stream operands and accumulators that
// the solver gate proved safe. Integer arithmetic without overflow is
// exact, so outputs match the int64 path bit for bit at any thread count.
void IntAttentionOp::run_i16(const ITensor& x, ITensor& out) const {
  const std::int64_t n = x.size(0), t = x.size(1), d = x.size(2);
  const std::int64_t h = p_.heads, dh = d / h;
  const int f = p_.frac_bits;
  const std::int64_t half = std::int64_t{1} << (f - 1);

  // 1. qkv projection + per-stream requant, fused; clamped streams land in
  // int16 scratch.
  std::int16_t* qkv = grown(attn_scratch().qkv, n * t * 3 * d);
  i8::Epilogue eq;
  eq.mode = i8::Epilogue::Mode::kPerCol;
  eq.mul = p_.qkv_mul.data();
  eq.bias = p_.qkv_bias.data();
  eq.frac0 = f;
  eq.bias_frac = p_.bias_frac;
  eq.lo = p_.stream_min;
  eq.hi = p_.stream_max;
  i8::gemm_b_packed(x.data(), *pbqkv_, qkv, n * t, eq, /*threaded=*/true);

  // 2-4. logits, LUT softmax, context per (sample, head); int32 logit and
  // context accumulators, int16 normalized probabilities (<= p_qmax). On
  // x86_64 the dot products run on SSE2 pmaddwd (pairwise int32 sums are
  // wrap-free: 2 * 32767^2 < 2^31, and the running totals are covered by
  // the solver gate's accumulation proof); integer adds are associative,
  // so the reassociated sums match the scalar loops bit for bit.
  const auto last = static_cast<std::int64_t>(p_.softmax_lut.size()) - 1;
  const std::int64_t rs = 3 * d;  // token row stride inside the qkv scratch
  std::int16_t* ctx = grown(attn_scratch().ctx, n * t * d);
  par::parallel_for(0, n * h, 1, [&](std::int64_t p0, std::int64_t p1) {
    AttnScratch& ws = attn_scratch();
    std::int32_t* logits = grown(ws.logits, t);
    std::int64_t* expv = grown(ws.expv, t);
    // One zero pad slot so the paired context kernel can read an even
    // number of probability lanes.
    std::int16_t* probs = grown(ws.probs, t + 1);
    probs[t] = 0;
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t in = p / h, ih = p % h;
      const std::int16_t* qbase = qkv + in * t * rs + 0 * d + ih * dh;
      const std::int16_t* kbase = qkv + in * t * rs + 1 * d + ih * dh;
      const std::int16_t* vbase = qkv + in * t * rs + 2 * d + ih * dh;
      for (std::int64_t iq = 0; iq < t; ++iq) {
        const std::int16_t* qrow = qbase + iq * rs;
        std::int32_t m = std::numeric_limits<std::int32_t>::min();
        for (std::int64_t ik = 0; ik < t; ++ik) {
          const std::int16_t* krow = kbase + ik * rs;
          std::int32_t acc = 0;
          std::int64_t e = 0;
#if defined(__x86_64__)
          __m128i acc4 = _mm_setzero_si128();
          for (; e + 8 <= dh; e += 8) {
            const __m128i qv = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(qrow + e));
            const __m128i kv = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(krow + e));
            acc4 = _mm_add_epi32(acc4, _mm_madd_epi16(qv, kv));
          }
          __m128i s4 = _mm_add_epi32(
              acc4, _mm_shuffle_epi32(acc4, _MM_SHUFFLE(1, 0, 3, 2)));
          s4 = _mm_add_epi32(s4,
                             _mm_shuffle_epi32(s4, _MM_SHUFFLE(2, 3, 0, 1)));
          acc = _mm_cvtsi128_si32(s4);
#endif
          for (; e < dh; ++e) {
            acc += static_cast<std::int32_t>(qrow[e]) * krow[e];
          }
          logits[static_cast<std::size_t>(ik)] = acc;
          m = std::max(m, acc);
        }
        std::int64_t sum = 0;
        for (std::int64_t ik = 0; ik < t; ++ik) {
          const std::int64_t diff =
              static_cast<std::int64_t>(m) -
              logits[static_cast<std::size_t>(ik)];
          const std::int64_t idx =
              std::min(last, (p_.logit_mul * diff + half) >> f);
          expv[static_cast<std::size_t>(ik)] =
              p_.softmax_lut[static_cast<std::size_t>(idx)];
          sum += expv[static_cast<std::size_t>(ik)];
        }
        if (sum > 0) {
          // Round-half-up division by the invariant sum via a double
          // reciprocal plus an exact fixup: the estimate is within one of
          // floor(num / sum) (num < 2^53 is exactly representable), so the
          // two corrections make every quotient exactly the hardware-
          // division result — bit-identical, at a fraction of the latency.
          const double rinv = 1.0 / static_cast<double>(sum);
          const std::int64_t h2 = sum / 2;
          for (std::int64_t ik = 0; ik < t; ++ik) {
            const std::int64_t num =
                expv[static_cast<std::size_t>(ik)] * p_.p_qmax + h2;
            auto q = static_cast<std::int64_t>(static_cast<double>(num) *
                                               rinv);
            if ((q + 1) * sum <= num) {
              ++q;
            } else if (q * sum > num) {
              --q;
            }
            probs[static_cast<std::size_t>(ik)] =
                static_cast<std::int16_t>(q);
          }
        } else {
          std::fill(probs, probs + t, std::int16_t{0});
        }
        std::int16_t* crow = ctx + (in * t + iq) * d + ih * dh;
        std::int64_t e0 = 0;
#if defined(__x86_64__)
        for (; e0 + 8 <= dh; e0 += 8) {
          // Two probability lanes per madd: interleave the value rows of
          // tokens ik and ik+1 so each int32 lane is p0*v0 + p1*v1 (the
          // pad slot zeroes the odd tail).
          __m128i acc_lo = _mm_setzero_si128();
          __m128i acc_hi = _mm_setzero_si128();
          for (std::int64_t ik = 0; ik < t; ik += 2) {
            const __m128i v0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(vbase + ik * rs + e0));
            const __m128i v1 =
                ik + 1 < t
                    ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                          vbase + (ik + 1) * rs + e0))
                    : _mm_setzero_si128();
            const auto pp = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(static_cast<std::uint16_t>(
                    probs[static_cast<std::size_t>(ik)])) |
                (static_cast<std::uint32_t>(static_cast<std::uint16_t>(
                     probs[static_cast<std::size_t>(ik + 1)]))
                 << 16));
            const __m128i pv = _mm_set1_epi32(pp);
            acc_lo = _mm_add_epi32(acc_lo,
                                   _mm_madd_epi16(_mm_unpacklo_epi16(v0, v1),
                                                  pv));
            acc_hi = _mm_add_epi32(acc_hi,
                                   _mm_madd_epi16(_mm_unpackhi_epi16(v0, v1),
                                                  pv));
          }
          alignas(16) std::int32_t tmp[8];
          _mm_store_si128(reinterpret_cast<__m128i*>(tmp), acc_lo);
          _mm_store_si128(reinterpret_cast<__m128i*>(tmp + 4), acc_hi);
          for (std::int64_t j = 0; j < 8; ++j) {
            const std::int64_t y = (p_.ctx_mul * tmp[j] + half) >> f;
            crow[e0 + j] = static_cast<std::int16_t>(
                clamp64(y, p_.ctx_min, p_.ctx_max));
          }
        }
#endif
        for (; e0 < dh; ++e0) {
          std::int32_t acc = 0;
          for (std::int64_t ik = 0; ik < t; ++ik) {
            acc += static_cast<std::int32_t>(
                       probs[static_cast<std::size_t>(ik)]) *
                   vbase[ik * rs + e0];
          }
          const std::int64_t y = (p_.ctx_mul * acc + half) >> f;
          crow[e0] = static_cast<std::int16_t>(
              clamp64(y, p_.ctx_min, p_.ctx_max));
        }
      }
    }
  });

  // 5. output projection + requant, fused, widening back to int64 lanes.
  i8::Epilogue ep;
  ep.mode = i8::Epilogue::Mode::kPerCol;
  ep.mul = p_.proj_mul.data();
  ep.bias = p_.proj_bias.data();
  ep.frac0 = f;
  ep.bias_frac = p_.bias_frac;
  ep.lo = p_.out_min;
  ep.hi = p_.out_max;
  i8::gemm_b_packed(ctx, *pbproj_, out.data(), n * t, ep, /*threaded=*/true);
}

}  // namespace t2c

// ---- checkpoint serialization ----

namespace t2c {

void LutSoftmaxOp::save_params(std::string& out) const {
  textio::put_line(out, {p_qmax_});
  textio::put_vec(out, lut_);
}

void LutGeluOp::save_params(std::string& out) const {
  textio::put_line(out, {in_min_, in_max_, index_step_});
  textio::put_vec(out, lut_);
}

void IntLayerNormOp::save_params(std::string& out) const {
  textio::put_line(out, {running_ ? 1 : 0, frac_bits_, out_min_, out_max_,
                         mean_int_, inv_sigma_fx_, stat_frac_});
  textio::put_vec(out, gamma_fx_);
  textio::put_vec(out, beta_fx_);
}

void IntAttentionOp::save_params(std::string& out) const {
  textio::put_line(out, {p_.heads, p_.frac_bits, p_.bias_frac, p_.stream_min,
                         p_.stream_max, p_.logit_mul, p_.p_qmax, p_.ctx_mul,
                         p_.ctx_min, p_.ctx_max, p_.out_min, p_.out_max});
  textio::put_tensor(out, p_.wqkv.shape(), p_.wqkv.vec());
  textio::put_vec(out, p_.qkv_mul);
  textio::put_vec(out, p_.qkv_bias);
  textio::put_vec(out, p_.softmax_lut);
  textio::put_tensor(out, p_.wproj.shape(), p_.wproj.vec());
  textio::put_vec(out, p_.proj_mul);
  textio::put_vec(out, p_.proj_bias);
}

}  // namespace t2c

// ---- profiling cost models (DESIGN.md §3.8) ----
//
// Shape-derived, thread-count-invariant; see int_ops.cpp for the shared
// conventions. LUTs count as one full read per call.

namespace t2c {

namespace {

std::int64_t lane_bytes64(std::int64_t elems) {
  return elems * static_cast<std::int64_t>(sizeof(std::int64_t));
}

std::int64_t operand_bytes64(const std::vector<const ITensor*>& ins) {
  std::int64_t b = 0;
  for (const ITensor* t : ins) b += lane_bytes64(t->numel());
  return b;
}

}  // namespace

obs::OpCost LutSoftmaxOp::cost(const std::vector<const ITensor*>& ins,
                               const ITensor& out) const {
  // Per element: rowmax compare, index subtract, LUT accumulate, final
  // normalizing divide.
  obs::OpCost c;
  c.flops = 4 * out.numel();
  c.bytes_read = operand_bytes64(ins) +
                 lane_bytes64(static_cast<std::int64_t>(lut_.size()));
  c.bytes_written = lane_bytes64(out.numel());
  return c;
}

obs::OpCost LutGeluOp::cost(const std::vector<const ITensor*>& ins,
                            const ITensor& out) const {
  // Clamp + index per element, then the lookup.
  obs::OpCost c;
  c.flops = 2 * out.numel();
  c.bytes_read = operand_bytes64(ins) +
                 lane_bytes64(static_cast<std::int64_t>(lut_.size()));
  c.bytes_written = lane_bytes64(out.numel());
  return c;
}

obs::OpCost IntLayerNormOp::cost(const std::vector<const ITensor*>& ins,
                                 const ITensor& out) const {
  // Mean + variance passes (instant stats), xhat, then the G*xhat + B
  // requant: ~8 flops and one mac per element either way.
  obs::OpCost c;
  const std::int64_t n = out.numel();
  c.macs = n;
  c.flops = 8 * n;
  c.bytes_read = operand_bytes64(ins) +
                 lane_bytes64(static_cast<std::int64_t>(gamma_fx_.size() +
                                                        beta_fx_.size()));
  c.bytes_written = lane_bytes64(n);
  return c;
}

obs::OpCost IntAttentionOp::cost(const std::vector<const ITensor*>& ins,
                                 const ITensor& out) const {
  // ins[0] is [N, T, D]. GEMM work: qkv projection (3*T*D*D), q*k^T and
  // p*v (T*T*D each), output projection (T*D*D) => 4*T*D^2 + 2*T^2*D macs
  // per batch row. Elementwise work: the four requant stages (~3 flops
  // per element over qkv + ctx + out = 6*T*D) and the softmax (~4 per
  // logit over H*T*T logits).
  obs::OpCost c;
  const ITensor& x = *ins[0];
  const std::int64_t n = x.size(0);
  const std::int64_t t = x.size(1);
  const std::int64_t d = x.size(2);
  const std::int64_t h = p_.heads;
  c.macs = n * (4 * t * d * d + 2 * t * t * d);
  c.flops = 2 * c.macs + 6 * n * t * d + 4 * n * h * t * t;
  // The narrow kernel streams prepacked int16 weight panels and int16
  // qkv/ctx scratch (2-byte lanes); the int64 path moves 8-byte lanes.
  const std::int64_t wlane = choice_.i8 ? 2 : 8;
  const std::int64_t slane = choice_.i8 ? 2 : 8;
  c.bytes_read =
      operand_bytes64(ins) +
      wlane * (p_.wqkv.numel() + p_.wproj.numel()) +
      slane * (2 * n * t * 3 * d + 2 * n * t * d) +  // qkv / ctx scratch
      lane_bytes64(static_cast<std::int64_t>(
          p_.qkv_mul.size() + p_.qkv_bias.size() + p_.softmax_lut.size() +
          p_.proj_mul.size() + p_.proj_bias.size()));
  c.bytes_written =
      lane_bytes64(out.numel()) + slane * (n * t * 3 * d + n * t * d);
  return c;
}

}  // namespace t2c
