#include "deploy/vit_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(__x86_64__)
#include <emmintrin.h>  // SSE2: baseline on x86_64, no dispatch needed
#endif

#include "core/parallel.h"
#include "nn/activations.h"
#include "tensor/requant.h"
#include "util/textio.h"
#include "xport/writers.h"

namespace t2c {

namespace {

// Minimum elements per chunk for element-wise sweeps (same rationale as
// int_ops.cpp): below this, partitioning overhead dwarfs the work.
constexpr std::int64_t kElemGrain = 4096;

/// Per-thread scratch of the narrow attention path and the LUT softmax,
/// grown on demand and kept for the thread's lifetime, so a steady-state
/// call allocates nothing. The calling thread's int16 streams (qkv, ctx)
/// and each worker's per-head packs (kv) and per-query rows (logits, exp
/// values, probabilities) are separate buffers, so the calling thread can
/// run chunks too.
struct VitScratch {
  std::vector<std::int16_t> qkv, ctx, kv, probs;
  std::vector<std::int32_t> logits;
  std::vector<std::int64_t> expv;
};

VitScratch& vit_scratch() {
  thread_local VitScratch s;
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

// The wrapping forms keep a row of extreme values free of undefined
// behaviour in the scalar kernels.
using rq::clamp64;
using rq::wrap_add;
using rq::wrap_mul;
using rq::wrap_sub;

std::uint64_t uabs(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  return v < 0 ? 0 - u : u;
}

/// Integer square root (floor). The estimate is capped at
/// floor(sqrt(INT64_MAX)), so (x + 1)^2 never overflows.
std::int64_t isqrt64(std::int64_t v) {
  if (v <= 0) return 0;
  constexpr std::int64_t kRootMax = 3037000499;
  auto x = std::min(
      kRootMax, static_cast<std::int64_t>(std::sqrt(static_cast<double>(v))));
  // Fix up double imprecision.
  while (x > 0 && x * x > v) --x;
  while (x < kRootMax && (x + 1) * (x + 1) <= v) ++x;
  return x;
}

// ---- exact division by an invariant divisor (DESIGN.md §3.4) ----
//
// LayerNorm divides a row by its deviation, GELU by the LUT step and the
// softmaxes by a row sum: one divisor, many numerators. An idiv costs tens
// of cycles and has no vector form, so numerators below kDivBound go
// through one double reciprocal, q0 = trunc(n * (1/d)). n converts to
// double exactly and 1/d and the product round once each, so the product
// is within (n/d) * 2^-52 < 1 of n/d, and q0 >= floor(n/d) - 1. It never
// overshoots: reaching k + 1 = floor(n/d) + 1 would take (k + 1) * d >
// 2^52 with n within (k + 1) * d * 2^-52 of it, i.e. n >= 2^52. So one
// upward correction gives exactly floor(n / d), the integer divide's bits.

/// Exclusive bound on the numerators and divisors of ExactDiv.
constexpr std::int64_t kDivBound = std::int64_t{1} << 52;

struct ExactDiv {
  /// 1 <= divisor < kDivBound.
  explicit ExactDiv(std::int64_t divisor)
      : d(divisor), r(1.0 / static_cast<double>(divisor)) {}

  /// floor(n / d) for 0 <= n < kDivBound.
  std::int64_t operator()(std::int64_t n) const {
    const auto q = static_cast<std::int64_t>(static_cast<double>(n) * r);
    return (q + 1) * d <= n ? q + 1 : q;
  }

  std::int64_t d;
  double r;
};

/// Largest numerator e * p_qmax of a LUT softmax's normalizing divide, or
/// -1 when p_qmax is not positive, an entry is negative or a product
/// reaches kDivBound, so that no row of this LUT can use the exact divide.
std::int64_t softmax_num_max(const std::vector<std::int64_t>& lut,
                             std::int64_t p_qmax) {
  if (p_qmax <= 0) return -1;
  const auto [lo, hi] = std::minmax_element(lut.begin(), lut.end());
  if (*lo < 0 || *hi > (kDivBound - 1) / p_qmax) return -1;
  return *hi * p_qmax;
}

/// True when ExactDiv covers a softmax row: sum is a valid divisor and
/// every numerator e * p_qmax + sum / 2 stays below kDivBound.
bool softmax_row_exact(std::int64_t num_max, std::int64_t sum) {
  return num_max >= 0 && sum > 0 && sum < kDivBound &&
         num_max + sum / 2 < kDivBound;
}

/// True when every GELU index numerator (q - in_min + step / 2, q clamped
/// to [in_min, in_max]) and the step itself fit ExactDiv.
bool gelu_window_exact(std::int64_t in_min, std::int64_t in_max,
                       std::int64_t step) {
  return in_min <= in_max && step < kDivBound &&
         static_cast<std::uint64_t>(in_max) -
                 static_cast<std::uint64_t>(in_min) <
             static_cast<std::uint64_t>(kDivBound - step / 2);
}

/// Variance headroom bits of the instant LayerNorm: its divisor is
/// isqrt(var << 2 kLnG) = sqrt(var) << kLnG, and xhat * 2^f is
/// ((x - mean) << (f + kLnG)) / divisor.
constexpr int kLnG = 10;

/// Constants of one instant-statistics LayerNorm sweep.
struct LnRows {
  const std::int64_t* gamma;
  const std::int64_t* beta;
  std::int64_t d;
  int f;
  std::int64_t half2f, lo, hi;

  /// Exclusive bound on |x - mean| for ExactDiv: (|x - mean| << (f +
  /// kLnG)) < kDivBound. f < 20, so the exponent is at least 23.
  std::uint64_t dev_bound() const {
    return std::uint64_t{1} << (52 - f - kLnG);
  }

  std::int64_t mean(std::int64_t sum) const {
    return wrap_add(wrap_mul(2, sum), d) / (2 * d);  // round-nearest
  }

  std::int64_t divisor(std::int64_t var_sum) const {
    return std::max<std::int64_t>(1, isqrt64((var_sum / d) << (2 * kLnG)));
  }

  /// clamp((G * xhat_f + (B << f) + 2^(2f-1)) >> 2f) for lane i.
  std::int64_t affine(std::int64_t i, std::int64_t xhat) const {
    const std::int64_t y =
        wrap_add(wrap_add(wrap_mul(gamma[i], xhat), beta[i] << f), half2f) >>
        (2 * f);
    return clamp64(y, lo, hi);
  }

  /// The integer-divide row: xhat_f = ((x - mean) << (f + kLnG)) / sq,
  /// truncating as C++ does. Rows past dev_bound() take it on every rung.
  void row_idiv(const std::int64_t* px, std::int64_t* po, std::int64_t mean,
                std::int64_t sq) const {
    for (std::int64_t i = 0; i < d; ++i) {
      po[i] = affine(i, (wrap_sub(px[i], mean) << (f + kLnG)) / sq);
    }
  }

  /// One row on the generic rung, and the reference of the vector form.
  /// ExactDiv floors |x - mean| << (f + kLnG); the sign goes back on
  /// after, which is the truncating quotient of the integer divide.
  void row(const std::int64_t* px, std::int64_t* po) const {
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < d; ++i) sum = wrap_add(sum, px[i]);
    const std::int64_t m = mean(sum);
    std::int64_t var_sum = 0;
    std::uint64_t dev = 0;
    for (std::int64_t i = 0; i < d; ++i) {
      const std::int64_t dv = wrap_sub(px[i], m);
      var_sum = wrap_add(var_sum, wrap_mul(dv, dv));
      dev = std::max(dev, uabs(dv));
    }
    const std::int64_t sq = divisor(var_sum);
    if (dev >= dev_bound()) {
      row_idiv(px, po, m, sq);
      return;
    }
    const ExactDiv div(sq);
    for (std::int64_t i = 0; i < d; ++i) {
      const std::int64_t dv = wrap_sub(px[i], m);
      const std::int64_t q =
          div(static_cast<std::int64_t>(uabs(dv) << (f + kLnG)));
      po[i] = affine(i, dv < 0 ? -q : q);
    }
  }
};

#if T2C_AVX512_LANES
// Same -Wmaybe-uninitialized false positive on _mm*_maskz_* as
// tensor/int8_gemm.cpp; the masked-lane zeroing is architectural.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// Wrapping sum of the eight lanes.
__attribute__((target("avx512f"))) std::int64_t hsum8(__m512i v) {
  alignas(64) std::int64_t lane[8];
  _mm512_store_si512(lane, v);
  std::int64_t s = 0;
  for (const std::int64_t x : lane) s = wrap_add(s, x);
  return s;
}

/// Largest of the eight lanes, as unsigned.
__attribute__((target("avx512f"))) std::uint64_t hmax8u(__m512i v) {
  alignas(64) std::uint64_t lane[8];
  _mm512_store_si512(lane, v);
  return *std::max_element(lane, lane + 8);
}

/// Largest of the sixteen int32 lanes.
__attribute__((target("avx512f"))) std::int32_t hmax16(__m512i v) {
  alignas(64) std::int32_t lane[16];
  _mm512_store_si512(lane, v);
  return *std::max_element(lane, lane + 16);
}

/// ExactDiv on eight int64 lanes: the same double product, truncation and
/// correction as the scalar form, so the same bits.
__attribute__((target("avx512f,avx512dq"))) inline __m512i div8(
    const ExactDiv& div, __m512i n) {
  const __m512i vd = _mm512_set1_epi64(div.d);
  const __m512i q = _mm512_cvttpd_epi64(
      _mm512_mul_pd(_mm512_cvtepi64_pd(n), _mm512_set1_pd(div.r)));
  const __mmask8 up = _mm512_cmple_epi64_mask(
      _mm512_add_epi64(_mm512_mullo_epi64(q, vd), vd), n);
  return _mm512_mask_add_epi64(q, up, q, _mm512_set1_epi64(1));
}

/// p[i] = div(e[i] * p_qmax + h2) for i < n, eight lanes per step.
template <typename OutT>
__attribute__((target("avx512f,avx512dq"))) void normalize_avx512(
    const std::int64_t* e, OutT* p, std::int64_t n, const ExactDiv& div,
    std::int64_t p_qmax, std::int64_t h2) {
  const __m512i vq = _mm512_set1_epi64(p_qmax);
  const __m512i vh = _mm512_set1_epi64(h2);
  for (std::int64_t i = 0; i < n; i += 8) {
    const __mmask8 m = avx512::tail8(n - i);
    const __m512i num = _mm512_add_epi64(
        _mm512_mullo_epi64(_mm512_maskz_loadu_epi64(m, e + i), vq), vh);
    avx512::store8(p + i, m, div8(div, num));
  }
}

/// LutGeluOp's sweep, eight lanes per step (caller checked
/// gelu_window_exact): clamp to the window, index numerator, ExactDiv by
/// the step, clamp the index, gather from the LUT.
__attribute__((target("avx512f,avx512dq"))) void gelu_span_avx512(
    const std::int64_t* x, std::int64_t* out, std::int64_t len,
    const std::int64_t* lut, std::int64_t last, std::int64_t in_min,
    std::int64_t in_max, std::int64_t h2, const ExactDiv& div) {
  const __m512i vlo = _mm512_set1_epi64(in_min);
  const __m512i vhi = _mm512_set1_epi64(in_max);
  const __m512i vh2 = _mm512_set1_epi64(h2);
  const __m512i vlast = _mm512_set1_epi64(last);
  const __m512i zero = _mm512_setzero_si512();
  for (std::int64_t i = 0; i < len; i += 8) {
    const __mmask8 m = avx512::tail8(len - i);
    const __m512i q = _mm512_min_epi64(
        vhi, _mm512_max_epi64(vlo, _mm512_maskz_loadu_epi64(m, x + i)));
    const __m512i idx = _mm512_min_epi64(
        vlast, _mm512_max_epi64(
                   zero, div8(div, _mm512_add_epi64(
                                       _mm512_sub_epi64(q, vlo), vh2))));
    _mm512_mask_storeu_epi64(
        out + i, m, _mm512_mask_i64gather_epi64(zero, m, idx, lut, 8));
  }
}

/// LnRows::row on eight lanes per step: the same wrapping sums and
/// products, the same row statistics, ExactDiv on |x - mean| with the
/// sign restored after, and the integer-divide row past the bound.
__attribute__((target("avx512f,avx512dq"))) void ln_row_avx512(
    const LnRows& k, const std::int64_t* px, std::int64_t* po) {
  const std::int64_t d = k.d;
  __m512i acc = _mm512_setzero_si512();
  for (std::int64_t i = 0; i < d; i += 8) {
    acc = _mm512_add_epi64(
        acc, _mm512_maskz_loadu_epi64(avx512::tail8(d - i), px + i));
  }
  const std::int64_t mean = k.mean(hsum8(acc));
  const __m512i vmean = _mm512_set1_epi64(mean);
  __m512i var = _mm512_setzero_si512();
  __m512i dev = _mm512_setzero_si512();
  for (std::int64_t i = 0; i < d; i += 8) {
    const __mmask8 m = avx512::tail8(d - i);
    const __m512i dv = _mm512_maskz_sub_epi64(
        m, _mm512_maskz_loadu_epi64(m, px + i), vmean);
    var = _mm512_add_epi64(var, _mm512_mullo_epi64(dv, dv));
    dev = _mm512_max_epu64(dev, _mm512_abs_epi64(dv));
  }
  const std::int64_t sq = k.divisor(hsum8(var));
  if (hmax8u(dev) >= k.dev_bound()) {
    k.row_idiv(px, po, mean, sq);
    return;
  }
  const ExactDiv div(sq);
  const auto s = static_cast<unsigned>(k.f + kLnG);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i vhalf = _mm512_set1_epi64(k.half2f);
  const __m512i vlo = _mm512_set1_epi64(k.lo);
  const __m512i vhi = _mm512_set1_epi64(k.hi);
  for (std::int64_t i = 0; i < d; i += 8) {
    const __mmask8 m = avx512::tail8(d - i);
    const __m512i dv = _mm512_maskz_sub_epi64(
        m, _mm512_maskz_loadu_epi64(m, px + i), vmean);
    const __m512i q = div8(div, _mm512_slli_epi64(_mm512_abs_epi64(dv), s));
    const __m512i xhat = _mm512_mask_sub_epi64(q, _mm512_movepi64_mask(dv),
                                               zero, q);
    const __m512i y = _mm512_srai_epi64(
        _mm512_add_epi64(
            _mm512_add_epi64(
                _mm512_mullo_epi64(_mm512_maskz_loadu_epi64(m, k.gamma + i),
                                   xhat),
                _mm512_slli_epi64(_mm512_maskz_loadu_epi64(m, k.beta + i),
                                  static_cast<unsigned>(k.f))),
            vhalf),
        static_cast<unsigned>(2 * k.f));
    _mm512_mask_storeu_epi64(po + i, m,
                             _mm512_min_epi64(vhi, _mm512_max_epi64(vlo, y)));
  }
}

/// AVX-512 running-statistics LayerNorm row: xhat plus the fused affine
/// requant, 8 lanes per step. vpmullq / vpsravq carry the exact 64-bit
/// wrap semantics of the scalar loop, so the bits are identical.
__attribute__((target("avx512f,avx512dq,avx512vl"))) void ln_running_avx512(
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
    const __mmask8 m = avx512::tail8(d - i);
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
#endif

/// p[i] = (e[i] * p_qmax + sum / 2) / sum for i < n, or zeros when
/// sum <= 0: the LUT softmaxes' normalization. A row ExactDiv covers
/// (num_max from softmax_num_max) divides through it, on eight lanes when
/// `vec`; any other row through the integer divide.
template <typename OutT>
void softmax_normalize(const std::int64_t* e, OutT* p, std::int64_t n,
                       std::int64_t sum, std::int64_t p_qmax,
                       std::int64_t num_max, bool vec) {
  if (sum <= 0) {
    std::fill(p, p + n, OutT{0});
    return;
  }
  const std::int64_t h2 = sum / 2;
  if (!softmax_row_exact(num_max, sum)) {
    for (std::int64_t i = 0; i < n; ++i) {
      p[i] = static_cast<OutT>((e[i] * p_qmax + h2) / sum);
    }
    return;
  }
  const ExactDiv div(sum);
#if T2C_AVX512_LANES
  if (vec) {
    normalize_avx512(e, p, n, div, p_qmax, h2);
    return;
  }
#else
  (void)vec;
#endif
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<OutT>(div(e[i] * p_qmax + h2));
  }
}

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
  num_max_ = softmax_num_max(lut_, p_qmax_);
}

ITensor LutSoftmaxOp::run(const std::vector<const ITensor*>& ins) const {
  check(ins.size() == 1 && ins[0] != nullptr, "LutSoftmax: one input");
  const ITensor& x = *ins[0];
  const std::int64_t d = x.size(x.rank() - 1);
  check(d > 0, "LutSoftmax: empty softmax axis (last dim == 0)");
  const std::int64_t rows = x.numel() / d;
  const auto last = static_cast<std::int64_t>(lut_.size()) - 1;
  const bool vec = rq::avx512_tier();
  ITensor out(x.shape());
  // Rows are independent; the exp scratch is the worker's own.
  par::parallel_for(
      0, rows, std::max<std::int64_t>(1, kElemGrain / d),
      [&](std::int64_t r0, std::int64_t r1) {
        std::int64_t* e = grown(vit_scratch().expv, d);
        for (std::int64_t r = r0; r < r1; ++r) {
          const std::int64_t* px = x.data() + r * d;
          std::int64_t m = px[0];
          for (std::int64_t i = 1; i < d; ++i) m = std::max(m, px[i]);
          std::int64_t sum = 0;
          for (std::int64_t i = 0; i < d; ++i) {
            // m >= px[i]: the unsigned difference is exact even where the
            // signed one would overflow (a row spanning more than 2^63).
            const std::uint64_t diff = static_cast<std::uint64_t>(m) -
                                       static_cast<std::uint64_t>(px[i]);
            e[i] = lut_[static_cast<std::size_t>(
                std::min(static_cast<std::uint64_t>(last), diff))];
            sum += e[i];
          }
          // Integer divide with rounding: p = e * qmax / sum.
          softmax_normalize(e, out.data() + r * d, d, sum, p_qmax_, num_max_,
                            vec);
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
  // Nearest-entry index = (q - in_min + step/2) / step. Inside an exact
  // window the divide is ExactDiv's; a window past its bound divides in
  // integers (a negative numerator clamps to index 0 either way).
  const std::int64_t h2 = index_step_ / 2;
  const bool exact = gelu_window_exact(in_min_, in_max_, index_step_);
  [[maybe_unused]] const bool vec = exact && rq::avx512_tier();
  const ExactDiv div(exact ? index_step_ : 1);
  par::parallel_for(
      0, x.numel(), kElemGrain, [&](std::int64_t i0, std::int64_t i1) {
#if T2C_AVX512_LANES
        if (vec) {
          gelu_span_avx512(x.data() + i0, out.data() + i0, i1 - i0,
                           lut_.data(), last, in_min_, in_max_, h2, div);
          return;
        }
#endif
        for (std::int64_t i = i0; i < i1; ++i) {
          const std::int64_t num =
              wrap_add(wrap_sub(clamp64(x[i], in_min_, in_max_), in_min_), h2);
          const std::int64_t idx = exact ? div(num) : num / index_step_;
          out[i] = lut_[static_cast<std::size_t>(clamp64(idx, 0, last))];
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
  ITensor out;
  run_into(ins, out);
  return out;
}

void IntLayerNormOp::run_into(const std::vector<const ITensor*>& ins,
                              ITensor& out) const {
  check(ins.size() == 1 && ins[0] != nullptr, "IntLayerNorm: one input");
  const ITensor& x = *ins[0];
  const auto d = static_cast<std::int64_t>(gamma_fx_.size());
  check(x.size(x.rank() - 1) == d, "IntLayerNorm: dim mismatch");
  recycle_tensor(out, x.shape());
  const std::int64_t rows = x.numel() / d;
  const int f = frac_bits_;
  const std::int64_t half2f = std::int64_t{1} << (2 * f - 1);
  const LnRows k{gamma_fx_.data(), beta_fx_.data(), d, f, half2f,
                 out_min_, out_max_};
  [[maybe_unused]] const bool vec = rq::avx512_tier();
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
#if T2C_AVX512_LANES
            if (vec) {
              ln_running_avx512(px, po, d, mean_int_, inv_sigma_fx_, sh,
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
#if T2C_AVX512_LANES
          if (vec) {
            ln_row_avx512(k, px, po);
            continue;
          }
#endif
          k.row(px, po);
        }
      });
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
  // The softmax indexes its LUT at (logit_mul · diff + half) >> f with
  // diff >= 0, and the requants shift by f - 1 and f + bias_frac - 1: the
  // ranges MulQuantOp accepts, with f >= 1.
  check(p_.logit_mul >= 0, "IntAttentionOp: negative logit_mul");
  check(p_.frac_bits >= 1 && p_.frac_bits < 31,
        "IntAttentionOp: frac_bits outside [1, 31)");
  check(p_.bias_frac >= 0 && p_.bias_frac <= 16,
        "IntAttentionOp: bias_frac outside [0, 16]");
  num_max_ = softmax_num_max(p_.softmax_lut, p_.p_qmax);
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

namespace {

/// Constants of the narrow attention core shared by every head: token
/// count, head and model dims, the softmax LUT and the context requant.
struct AttnHead {
  std::int64_t t, dh, d;
  const std::int64_t* lut;
  std::int64_t last, logit_mul, half;
  int f;
  std::int64_t p_qmax, num_max, ctx_mul;
  rq::Clip ctx;  ///< the context stream's window, clips not counted
};

/// One head's logits, LUT softmax and context on the generic rung. q, k
/// and v point at the head's lanes of token 0 in the qkv scratch (token
/// stride 3d), c at its lanes of token 0 in the context scratch (stride
/// d). On x86_64 the dot products run on SSE2 pmaddwd (pairwise int32
/// sums are wrap-free: 2 * 32767^2 < 2^31, and the running totals are
/// covered by the solver gate's accumulation proof); integer adds are
/// associative, so the reassociated sums match the scalar loops bit for
/// bit.
void attn_head_generic(const AttnHead& a, const std::int16_t* qbase,
                       const std::int16_t* kbase, const std::int16_t* vbase,
                       std::int16_t* cbase, VitScratch& ws) {
  const std::int64_t t = a.t, dh = a.dh, rs = 3 * a.d;
  std::int32_t* logits = grown(ws.logits, t);
  std::int64_t* expv = grown(ws.expv, t);
  // One zero pad slot so the paired context kernel can read an even
  // number of probability lanes.
  std::int16_t* probs = grown(ws.probs, t + 1);
  probs[t] = 0;
  std::int64_t sat = 0;  // a.ctx counts no clips
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
        const __m128i qv =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(qrow + e));
        const __m128i kv =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(krow + e));
        acc4 = _mm_add_epi32(acc4, _mm_madd_epi16(qv, kv));
      }
      __m128i s4 = _mm_add_epi32(
          acc4, _mm_shuffle_epi32(acc4, _MM_SHUFFLE(1, 0, 3, 2)));
      s4 = _mm_add_epi32(s4, _mm_shuffle_epi32(s4, _MM_SHUFFLE(2, 3, 0, 1)));
      acc = _mm_cvtsi128_si32(s4);
#endif
      for (; e < dh; ++e) {
        acc += static_cast<std::int32_t>(qrow[e]) * krow[e];
      }
      logits[ik] = acc;
      m = std::max(m, acc);
    }
    std::int64_t sum = 0;
    for (std::int64_t ik = 0; ik < t; ++ik) {
      const std::int64_t diff = static_cast<std::int64_t>(m) - logits[ik];
      const std::int64_t idx =
          std::min(a.last, (a.logit_mul * diff + a.half) >> a.f);
      expv[ik] = a.lut[idx];
      sum += expv[ik];
    }
    softmax_normalize(expv, probs, t, sum, a.p_qmax, a.num_max, false);
    std::int16_t* crow = cbase + iq * a.d;
    std::int64_t e0 = 0;
#if defined(__x86_64__)
    for (; e0 + 8 <= dh; e0 += 8) {
      // Two probability lanes per madd: interleave the value rows of
      // tokens ik and ik+1 so each int32 lane is p0*v0 + p1*v1 (the pad
      // slot zeroes the odd tail).
      __m128i acc_lo = _mm_setzero_si128();
      __m128i acc_hi = _mm_setzero_si128();
      for (std::int64_t ik = 0; ik < t; ik += 2) {
        const __m128i v0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(vbase + ik * rs + e0));
        const __m128i v1 =
            ik + 1 < t ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                             vbase + (ik + 1) * rs + e0))
                       : _mm_setzero_si128();
        const auto pp = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(static_cast<std::uint16_t>(probs[ik])) |
            (static_cast<std::uint32_t>(
                 static_cast<std::uint16_t>(probs[ik + 1]))
             << 16));
        const __m128i pv = _mm_set1_epi32(pp);
        acc_lo = _mm_add_epi32(
            acc_lo, _mm_madd_epi16(_mm_unpacklo_epi16(v0, v1), pv));
        acc_hi = _mm_add_epi32(
            acc_hi, _mm_madd_epi16(_mm_unpackhi_epi16(v0, v1), pv));
      }
      alignas(16) std::int32_t tmp[8];
      _mm_store_si128(reinterpret_cast<__m128i*>(tmp), acc_lo);
      _mm_store_si128(reinterpret_cast<__m128i*>(tmp + 4), acc_hi);
      for (std::int64_t j = 0; j < 8; ++j) {
        crow[e0 + j] = static_cast<std::int16_t>(
            rq::requant1(tmp[j], a.ctx_mul, 0, a.half, a.f, 0, a.ctx, sat));
      }
    }
#endif
    for (; e0 < dh; ++e0) {
      std::int32_t acc = 0;
      for (std::int64_t ik = 0; ik < t; ++ik) {
        acc += static_cast<std::int32_t>(probs[ik]) * vbase[ik * rs + e0];
      }
      crow[e0] = static_cast<std::int16_t>(
          rq::requant1(acc, a.ctx_mul, 0, a.half, a.f, 0, a.ctx, sat));
    }
  }
}

#if T2C_AVX512_LANES
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// Queries per pass of the AVX-512 attention core: four independent
/// accumulator chains share every panel load.
constexpr std::int64_t kQueryBlock = 4;

/// The lane pair at p, in every int32 lane.
__attribute__((target("avx512f"))) inline __m512i bcast_pair(
    const std::int16_t* p) {
  std::int32_t pair = 0;
  std::memcpy(&pair, p, sizeof pair);
  return _mm512_set1_epi32(pair);
}

/// out[r][j] = sum over p < k2 of a_r[2p] * panel[p][j][0] + a_r[2p+1] *
/// panel[p][j][1], for rows r < rows (at most kQueryBlock, a_r = a + r *
/// lda, out_r = out + r * ldo) and j < 16 * nvec: int16 rows, one lane
/// pair at a time, broadcast against a pair-interleaved panel of 16 *
/// nvec columns, through vpmaddwd + vpaddd. A pairwise sum cannot wrap
/// (2 * 32767^2 < 2^31) and the solver gate bounds the totals, so the
/// int32 lanes are exact.
__attribute__((target("avx512f,avx512bw"))) void pair_dot_avx512(
    const std::int16_t* a, std::int64_t lda, std::int64_t rows,
    const std::int16_t* panel, std::int64_t k2, std::int64_t nvec,
    std::int32_t* out, std::int64_t ldo) {
  const std::int16_t* ar[kQueryBlock];
  for (std::int64_t r = 0; r < kQueryBlock; ++r) {
    ar[r] = a + std::min(r, rows - 1) * lda;
  }
  for (std::int64_t v = 0; v < nvec; ++v) {
    __m512i acc[kQueryBlock];
    for (auto& x : acc) x = _mm512_setzero_si512();
    for (std::int64_t p = 0; p < k2; ++p) {
      const __m512i b = _mm512_loadu_si512(panel + (p * nvec + v) * 32);
      for (std::int64_t r = 0; r < kQueryBlock; ++r) {
        acc[r] = _mm512_add_epi32(
            acc[r], _mm512_madd_epi16(bcast_pair(ar[r] + 2 * p), b));
      }
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      _mm512_storeu_si512(out + r * ldo + v * 16, acc[r]);
    }
  }
}

/// attn_head_generic on AVX-512. K^T and V of the head are packed once
/// into the worker's scratch, pair-interleaved and zero-padded to whole
/// vectors, so the logits of kQueryBlock queries at a time are int32
/// vectors across keys and their contexts int32 vectors across head
/// dims; the LUT softmax and the context requant run eight int64 lanes at
/// a time.
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) void
attn_head_avx512(const AttnHead& a, const std::int16_t* qbase,
                 const std::int16_t* kbase, const std::int16_t* vbase,
                 std::int16_t* cbase, VitScratch& ws) {
  const std::int64_t t = a.t, dh = a.dh, rs = 3 * a.d;
  const std::int64_t tp = (t + 15) / 16 * 16;    // key lanes
  const std::int64_t dhp = (dh + 15) / 16 * 16;  // head-dim lanes
  const std::int64_t dh2 = (dh + 1) / 2, t2 = (t + 1) / 2;
  // kt[(e2 * tp + ik) * 2 + j] = k[ik][2 * e2 + j] and
  // vp[(ik2 * dhp + e) * 2 + j] = v[2 * ik2 + j][e], zero past t and dh.
  std::int16_t* kt = grown(ws.kv, (dh2 * tp + t2 * dhp) * 2);
  std::int16_t* vp = kt + dh2 * tp * 2;
  const __m512i zero = _mm512_setzero_si512();
  // K^T: one gather of 16 keys' (2 e2, 2 e2 + 1) lane pairs per row; an
  // odd dh's last pair keeps its low lane only.
  const __m512i krows = _mm512_mullo_epi32(
      _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
      _mm512_set1_epi32(static_cast<std::int32_t>(rs)));
  for (std::int64_t kb = 0; kb < tp; kb += 16) {
    const __mmask16 m = avx512::tail16(t - kb);
    const std::int16_t* k0 = kbase + kb * rs;
    for (std::int64_t e2 = 0; e2 < dh2; ++e2) {
      __m512i pairs = _mm512_mask_i32gather_epi32(zero, m, krows,
                                                  k0 + 2 * e2, 2);
      if (2 * e2 + 1 == dh) {
        pairs = _mm512_and_si512(pairs, _mm512_set1_epi32(0xffff));
      }
      _mm512_storeu_si512(kt + (e2 * tp + kb) * 2, pairs);
    }
  }
  // V: value rows 2 ik2 and 2 ik2 + 1 interleaved lane by lane.
  for (std::int64_t ik2 = 0; ik2 < t2; ++ik2) {
    const std::int16_t* v0 = vbase + 2 * ik2 * rs;
    const bool odd_tail = 2 * ik2 + 1 == t;
    for (std::int64_t eb = 0; eb < dhp; eb += 16) {
      const __mmask16 m = avx512::tail16(dh - eb);
      const __m512i lo =
          _mm512_cvtepu16_epi32(_mm256_maskz_loadu_epi16(m, v0 + eb));
      const __m512i hi =
          odd_tail ? zero
                   : _mm512_cvtepu16_epi32(
                         _mm256_maskz_loadu_epi16(m, v0 + rs + eb));
      _mm512_storeu_si512(vp + (ik2 * dhp + eb) * 2,
                          _mm512_or_si512(lo, _mm512_slli_epi32(hi, 16)));
    }
  }
  std::int32_t* logits = grown(ws.logits, kQueryBlock * (tp + dhp));
  std::int32_t* cacc = logits + kQueryBlock * tp;
  std::int64_t* expv = grown(ws.expv, t);
  std::int16_t* probs = grown(ws.probs, kQueryBlock * 2 * t2);
  const __m512i vlmul = _mm512_set1_epi64(a.logit_mul);
  const __m512i vhalf = _mm512_set1_epi64(a.half);
  const __m512i vlast = _mm512_set1_epi64(a.last);
  const __m512i vcmul = _mm512_set1_epi64(a.ctx_mul);
  const __m512i vclo = _mm512_set1_epi64(a.ctx.lo);
  const __m512i vchi = _mm512_set1_epi64(a.ctx.hi);
  const __m512i vf = _mm512_set1_epi64(a.f);
  const auto f = static_cast<unsigned>(a.f);
  std::int64_t sat = 0;  // a.ctx counts no clips
  for (std::int64_t iq0 = 0; iq0 < t; iq0 += kQueryBlock) {
    const std::int64_t rows = std::min(kQueryBlock, t - iq0);
    // Logits against every key. An odd dh reads one lane past the head
    // (still inside the token's qkv row), which meets K^T's zero pad.
    pair_dot_avx512(qbase + iq0 * rs, rs, rows, kt, dh2, tp / 16, logits,
                    tp);
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int32_t* lr = logits + r * tp;
      __m512i vm =
          _mm512_set1_epi32(std::numeric_limits<std::int32_t>::min());
      for (std::int64_t ik = 0; ik < t; ik += 16) {
        vm = _mm512_mask_max_epi32(vm, avx512::tail16(t - ik), vm,
                                   _mm512_loadu_si512(lr + ik));
      }
      const __m512i vmx = _mm512_set1_epi64(hmax16(vm));
      __m512i vsum = zero;
      for (std::int64_t ik = 0; ik < t; ik += 8) {
        const __mmask8 m = avx512::tail8(t - ik);
        const __m512i diff = _mm512_sub_epi64(
            vmx, _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(m, lr + ik)));
        const __m512i idx = _mm512_min_epi64(
            vlast,
            _mm512_srai_epi64(
                _mm512_add_epi64(_mm512_mullo_epi64(vlmul, diff), vhalf), f));
        const __m512i ev =
            _mm512_mask_i64gather_epi64(zero, m, idx, a.lut, 8);
        vsum = _mm512_add_epi64(vsum, ev);
        _mm512_mask_storeu_epi64(expv + ik, m, ev);
      }
      // An odd t leaves the row's last lane stale; V's zero pad row meets
      // it.
      softmax_normalize(expv, probs + r * 2 * t2, t, hsum8(vsum), a.p_qmax,
                        a.num_max, true);
    }
    // Contexts: probability pairs against V, then the requant.
    pair_dot_avx512(probs, 2 * t2, rows, vp, t2, dhp / 16, cacc, dhp);
    for (std::int64_t r = 0; r < rows; ++r) {
      std::int16_t* crow = cbase + (iq0 + r) * a.d;
      const std::int32_t* cr = cacc + r * dhp;
      for (std::int64_t e = 0; e < dh; e += 8) {
        const __mmask8 m = avx512::tail8(dh - e);
        avx512::store8(crow + e, m,
                       rq::requant8_avx512(avx512::load8(cr + e, m), vcmul,
                                           zero, vhalf, vf, 0, vclo, vchi,
                                           a.ctx, m, sat));
      }
    }
  }
}

#pragma GCC diagnostic pop
#endif

}  // namespace

// Narrow-lane twin of run(): identical stage structure and identical
// values at every stage. The projections run through the prepacked int16
// panels with the per-stream requant fused into the epilogue (the epilogue
// arithmetic is MulQuantOp's, and uniform frac0 = frac_bits + bias_frac
// reproduces the bhalf rounding term of the hand loop above); the
// logits/softmax/context stages keep the int64 softmax arithmetic,
// narrowing only the stream operands and accumulators that the solver
// gate proved safe. Integer arithmetic without overflow is exact, so
// outputs match the int64 path bit for bit at any thread count and rung.
void IntAttentionOp::run_i16(const ITensor& x, ITensor& out) const {
  const std::int64_t n = x.size(0), t = x.size(1), d = x.size(2);
  const std::int64_t h = p_.heads, dh = d / h;
  const int f = p_.frac_bits;
  const std::int64_t half = std::int64_t{1} << (f - 1);

  // 1. qkv projection + per-stream requant, fused; clamped streams land in
  // int16 scratch.
  std::int16_t* qkv = grown(vit_scratch().qkv, n * t * 3 * d);
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
  // context accumulators, int16 normalized probabilities (<= p_qmax).
  const AttnHead a{t,
                   dh,
                   d,
                   p_.softmax_lut.data(),
                   static_cast<std::int64_t>(p_.softmax_lut.size()) - 1,
                   p_.logit_mul,
                   half,
                   f,
                   p_.p_qmax,
                   num_max_,
                   p_.ctx_mul,
                   {p_.ctx_min, p_.ctx_max, false}};
  [[maybe_unused]] const bool vec = rq::avx512_tier();
  std::int16_t* ctx = grown(vit_scratch().ctx, n * t * d);
  par::parallel_for(0, n * h, 1, [&](std::int64_t p0, std::int64_t p1) {
    VitScratch& ws = vit_scratch();
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t in = p / h, ih = p % h;
      const std::int16_t* q = qkv + in * t * 3 * d + ih * dh;
      std::int16_t* c = ctx + in * t * d + ih * dh;
#if T2C_AVX512_LANES
      if (vec) {
        attn_head_avx512(a, q, q + d, q + 2 * d, c, ws);
        continue;
      }
#endif
      attn_head_generic(a, q, q + d, q + 2 * d, c, ws);
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
  textio::put_tensor(out, p_.wqkv.shape(), p_.wqkv.vec(),
                     required_word_bits(wqkv_facts_.lo, wqkv_facts_.hi));
  textio::put_vec(out, p_.qkv_mul);
  textio::put_vec(out, p_.qkv_bias);
  textio::put_vec(out, p_.softmax_lut);
  textio::put_tensor(out, p_.wproj.shape(), p_.wproj.vec(),
                     required_word_bits(wproj_facts_.lo, wproj_facts_.hi));
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
