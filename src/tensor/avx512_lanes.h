// Masked eight-lane helpers shared by the AVX-512 kernels of the int8 GEMM
// writeback (tensor/int8_gemm.cpp), the shared requant (tensor/requant.h),
// the deploy ops (deploy/int_ops.cpp) and the ViT ops (deploy/vit_ops.cpp).
// Internal to those sources. The helpers carry their own target attribute,
// so including the header enables no ISA; the caller picks the rung
// through util::cpu_isa_tier(). T2C_AVX512_LANES is 1 where they exist.
#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define T2C_AVX512_LANES 1
#include <immintrin.h>

#include <cstdint>

namespace t2c::avx512 {

/// The first min(left, 8) lanes; left >= 0.
inline __mmask8 tail8(std::int64_t left) {
  return static_cast<__mmask8>(left >= 8 ? 0xff : (1u << left) - 1u);
}

/// The first min(left, 16) lanes; left >= 0.
inline __mmask16 tail16(std::int64_t left) {
  return static_cast<__mmask16>(left >= 16 ? 0xffff : (1u << left) - 1u);
}

/// Masked load of eight int64 lanes: int64 storage as it is, int32
/// storage sign-extended. Masked-off lanes read as zero.
__attribute__((target("avx512f"))) inline __m512i load8(const std::int64_t* p,
                                                        __mmask8 m) {
  return _mm512_maskz_loadu_epi64(m, p);
}
__attribute__((target("avx512f,avx512vl"))) inline __m512i load8(
    const std::int32_t* p, __mmask8 m) {
  return _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(m, p));
}

/// Masked store of eight int64 lanes: as they are into int64 storage, or
/// narrowed by vpmovqw into int16 storage, which truncates like a scalar
/// static_cast.
__attribute__((target("avx512f"))) inline void store8(std::int64_t* p,
                                                      __mmask8 m, __m512i v) {
  _mm512_mask_storeu_epi64(p, m, v);
}
__attribute__((target("avx512f"))) inline void store8(std::int16_t* p,
                                                      __mmask8 m, __m512i v) {
  _mm512_mask_cvtepi64_storeu_epi16(p, m, v);
}

}  // namespace t2c::avx512

#else
#define T2C_AVX512_LANES 0
#endif
