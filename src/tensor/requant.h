// The one requant datapath (DESIGN.md §3.2), internal to src/: MulQuant's
//   y = clamp((mul · ((v << bias_frac) + bias) + half) >> f, lo, hi)
// with its clip count, as one scalar form (requant1) and one eight-lane
// AVX-512 form (requant8_avx512). The fused GEMM writeback, the standalone
// MulQuant step (both through i8::requant), the depthwise conv, the pools
// and the narrow attention's context requant call these; IntAdd calls the
// clamp-and-count helper alone. Every add and multiply wraps in two's
// complement, as the 64-bit vector lanes do, so the scalar form has no
// undefined behaviour and its bits equal the vector form's for any input.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "tensor/avx512_lanes.h"
#include "util/cpuinfo.h"

namespace t2c::rq {

inline std::int64_t clamp64(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return std::min(hi, std::max(lo, v));
}

// Two's-complement wrapping arithmetic: the semantics of the 64-bit vector
// lanes, and defined for every input.
inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

/// True on the AVX-512 rung of util::cpu_isa_tier(), where every integer
/// kernel runs its vector form (each bit-identical to its scalar form).
inline bool avx512_tier() {
  return T2C_AVX512_LANES &&
         util::cpu_isa_tier() >= util::IsaTier::kAvx512;
}

/// The rounding term of a shift by f: 2^(f-1), or 0 for f = 0.
inline std::int64_t round_half(int f) {
  return f > 0 ? std::int64_t{1} << (f - 1) : 0;
}

/// An output clamp window, and whether its clips are counted.
struct Clip {
  std::int64_t lo = 0, hi = 0;
  bool count = false;
};

/// clamp(y, lo, hi); with c.count, a clipped y adds one to `sat`. A clip to
/// a zero floor is activation (ReLU) semantics, not saturation, and does
/// not count.
inline std::int64_t clip1(std::int64_t y, const Clip& c, std::int64_t& sat) {
  if (c.count && (y > c.hi || (c.lo != 0 && y < c.lo))) ++sat;
  return clamp64(y, c.lo, c.hi);
}

/// The requant of one value with one entry's constants (f includes
/// bias_frac, half = round_half(f)).
inline std::int64_t requant1(std::int64_t v, std::int64_t mul,
                             std::int64_t bias, std::int64_t half, int f,
                             int bias_frac, const Clip& c, std::int64_t& sat) {
  const std::int64_t t = wrap_add(v << bias_frac, bias);
  return clip1(wrap_add(wrap_mul(mul, t), half) >> f, c, sat);
}

/// Merges one worker's clip count into a call's shared total (none when
/// `total` is null).
inline void add_sats(std::atomic<std::int64_t>* total, std::int64_t sat) {
  if (total != nullptr && sat != 0) {
    total->fetch_add(sat, std::memory_order_relaxed);
  }
}

#if T2C_AVX512_LANES
/// clip1 on eight lanes: counts the lanes of `valid` that clip (masked-off
/// padding never counts).
__attribute__((target("avx512f"))) inline __m512i clip8_avx512(
    __m512i y, __m512i vlo, __m512i vhi, const Clip& c, __mmask8 valid,
    std::int64_t& sat) {
  if (c.count) {
    __mmask8 sm = _mm512_cmpgt_epi64_mask(y, vhi);
    if (c.lo != 0) sm |= _mm512_cmplt_epi64_mask(y, vlo);
    sat += __builtin_popcount(static_cast<unsigned>(sm & valid));
  }
  return _mm512_min_epi64(vhi, _mm512_max_epi64(vlo, y));
}

/// requant1 on eight lanes, each with its own constants. vpsllq, vpaddq,
/// vpmullq, vpsravq and the min/max clamp compute exactly the wrapped
/// scalar expression, so bits and clip counts match requant1 lane for lane.
__attribute__((target("avx512f,avx512dq"))) inline __m512i requant8_avx512(
    __m512i v, __m512i vmul, __m512i vbias, __m512i vhalf, __m512i vf,
    unsigned bias_frac, __m512i vlo, __m512i vhi, const Clip& c,
    __mmask8 valid, std::int64_t& sat) {
  const __m512i t = _mm512_add_epi64(_mm512_slli_epi64(v, bias_frac), vbias);
  const __m512i y = _mm512_srav_epi64(
      _mm512_add_epi64(_mm512_mullo_epi64(t, vmul), vhalf), vf);
  return clip8_avx512(y, vlo, vhi, c, valid, sat);
}
#endif

}  // namespace t2c::rq
