#include "tensor/int8_gemm.h"

#include <algorithm>
#include <type_traits>

#include "core/parallel.h"
#include "util/check.h"
#include "util/cpuinfo.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define T2C_I8_AVX2 1
#include <immintrin.h>
#else
#define T2C_I8_AVX2 0
#endif

namespace t2c {

namespace i8 {

namespace {

// Per-CPU dispatch for the scalar micro-kernel, same contract as
// matmul.cpp: GCC clones for the wider SIMD levels and resolves via ifunc
// at load time, so every thread runs the same clone and the thread-count
// determinism contract is untouched. Sanitized builds skip the clones.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define T2C_MICROKERNEL_SIMD \
  __attribute__((target_clones("default", "arch=haswell", "arch=x86-64-v4")))
#else
#define T2C_MICROKERNEL_SIMD
#endif

/// acc[kMr][kNr] = Apack · Bpanel over k2 depth pairs, int16 lanes into
/// int32 accumulators. Both packs are pair-major ([k2][rows][2]), so every
/// pair step is kMr two-lane broadcasts plus kNr-wide dual multiply-adds —
/// the scalar mirror of vpmaddwd. The caller proved (via accum_fits_i32)
/// that no partial sum leaves int32, so the accumulation never wraps and
/// equals the int64 reference exactly; integer adds are associative, so
/// the pairing order changes nothing.
T2C_MICROKERNEL_SIMD void micro_kernel_i16(const std::int16_t* apack,
                                           const std::int16_t* bpanel,
                                           std::int32_t* acc,
                                           std::int64_t k2) {
  std::int32_t local[kMr][kNr] = {};
  for (std::int64_t p2 = 0; p2 < k2; ++p2) {
    const std::int16_t* bp = bpanel + p2 * kNr * 2;
    const std::int16_t* ap = apack + p2 * kMr * 2;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const auto a0 = static_cast<std::int32_t>(ap[2 * r]);
      const auto a1 = static_cast<std::int32_t>(ap[2 * r + 1]);
      for (std::int64_t j = 0; j < kNr; ++j) {
        local[r][j] += a0 * static_cast<std::int32_t>(bp[2 * j]) +
                       a1 * static_cast<std::int32_t>(bp[2 * j + 1]);
      }
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) {
    for (std::int64_t j = 0; j < kNr; ++j) acc[r * kNr + j] = local[r][j];
  }
}

#if T2C_I8_AVX2
/// vpmaddwd micro-kernel: each madd multiplies 16 int16 lanes and adds
/// adjacent products, yielding a0*b0 + a1*b1 for eight columns — exactly
/// one packed depth pair. The pairwise sum is wrap-free unconditionally
/// (operands are clamped to kOperandMax, and 2 · 32767² < 2^31); the
/// running int32 adds are covered by the caller's accum_fits_i32 proof.
/// Pure integer arithmetic in a fixed order: bit-identical to the scalar
/// kernel at any thread count.
__attribute__((target("avx2"))) void micro_kernel_avx2(
    const std::int16_t* apack, const std::int16_t* bpanel, std::int32_t* acc,
    std::int64_t k2) {
  static_assert(kMr == 4 && kNr == 32, "register tiling assumes 4x32");
  __m256i vacc[kMr][kNr / 8];
  for (auto& row : vacc) {
    for (auto& v : row) v = _mm256_setzero_si256();
  }
  for (std::int64_t p2 = 0; p2 < k2; ++p2) {
    const auto* bp =
        reinterpret_cast<const __m256i*>(bpanel + p2 * kNr * 2);
    const __m256i b0 = _mm256_loadu_si256(bp + 0);
    const __m256i b1 = _mm256_loadu_si256(bp + 1);
    const __m256i b2 = _mm256_loadu_si256(bp + 2);
    const __m256i b3 = _mm256_loadu_si256(bp + 3);
    const std::int16_t* ap = apack + p2 * kMr * 2;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const auto pair = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(static_cast<std::uint16_t>(ap[2 * r])) |
          (static_cast<std::uint32_t>(
               static_cast<std::uint16_t>(ap[2 * r + 1]))
           << 16));
      const __m256i av = _mm256_set1_epi32(pair);
      vacc[r][0] =
          _mm256_add_epi32(vacc[r][0], _mm256_madd_epi16(av, b0));
      vacc[r][1] =
          _mm256_add_epi32(vacc[r][1], _mm256_madd_epi16(av, b1));
      vacc[r][2] =
          _mm256_add_epi32(vacc[r][2], _mm256_madd_epi16(av, b2));
      vacc[r][3] =
          _mm256_add_epi32(vacc[r][3], _mm256_madd_epi16(av, b3));
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) {
    auto* out = reinterpret_cast<__m256i*>(acc + r * kNr);
    for (std::int64_t v = 0; v < kNr / 8; ++v) {
      _mm256_storeu_si256(out + v, vacc[r][v]);
    }
  }
}
/// AVX-512 variant: one 512-bit load covers a full 32-column pair row, so
/// each depth pair is 2 loads + per row (broadcast, 2 madd, 2 add) — half
/// the instruction count of the AVX2 kernel. Same exact integer
/// arithmetic, same wrap-free bounds.
__attribute__((target("avx512bw"))) void micro_kernel_avx512(
    const std::int16_t* apack, const std::int16_t* bpanel, std::int32_t* acc,
    std::int64_t k2) {
  static_assert(kMr == 4 && kNr == 32, "register tiling assumes 4x32");
  __m512i vacc[kMr][kNr / 16];
  for (auto& row : vacc) {
    for (auto& v : row) v = _mm512_setzero_si512();
  }
  for (std::int64_t p2 = 0; p2 < k2; ++p2) {
    const auto* bp =
        reinterpret_cast<const __m512i*>(bpanel + p2 * kNr * 2);
    const __m512i b0 = _mm512_loadu_si512(bp + 0);
    const __m512i b1 = _mm512_loadu_si512(bp + 1);
    const std::int16_t* ap = apack + p2 * kMr * 2;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const auto pair = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(static_cast<std::uint16_t>(ap[2 * r])) |
          (static_cast<std::uint32_t>(
               static_cast<std::uint16_t>(ap[2 * r + 1]))
           << 16));
      const __m512i av = _mm512_set1_epi32(pair);
      vacc[r][0] =
          _mm512_add_epi32(vacc[r][0], _mm512_madd_epi16(av, b0));
      vacc[r][1] =
          _mm512_add_epi32(vacc[r][1], _mm512_madd_epi16(av, b1));
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) {
    auto* out = reinterpret_cast<__m512i*>(acc + r * kNr);
    _mm512_storeu_si512(out + 0, vacc[r][0]);
    _mm512_storeu_si512(out + 1, vacc[r][1]);
  }
}
#endif  // T2C_I8_AVX2

using MicroKernelFn = void (*)(const std::int16_t*, const std::int16_t*,
                               std::int32_t*, std::int64_t);

/// Maps the caller's MicroKernel request onto a function pointer,
/// downgrading to the best variant the CPU tier supports. kAuto picks the
/// widest available — the pre-registry behavior. The resolved pointer is
/// captured once per GEMM call and shared by every worker, so all threads
/// run the same variant and the determinism contract holds; the variants
/// compute identical integer arithmetic anyway, so even a mid-run tier
/// change could not alter the bits.
MicroKernelFn resolve_micro_kernel(MicroKernel mk) {
#if T2C_I8_AVX2
  const util::IsaTier tier = util::cpu_isa_tier();
  if (mk == MicroKernel::kAuto) {
    mk = tier >= util::IsaTier::kAvx512  ? MicroKernel::kAvx512
         : tier >= util::IsaTier::kAvx2 ? MicroKernel::kAvx2
                                         : MicroKernel::kScalar;
  }
  if (mk == MicroKernel::kAvx512 && tier < util::IsaTier::kAvx512) {
    mk = MicroKernel::kAvx2;
  }
  if (mk == MicroKernel::kAvx2 && tier < util::IsaTier::kAvx2) {
    mk = MicroKernel::kScalar;
  }
  if (mk == MicroKernel::kAvx512) return micro_kernel_avx512;
  if (mk == MicroKernel::kAvx2) return micro_kernel_avx2;
#else
  (void)mk;
#endif
  return micro_kernel_i16;
}

std::int64_t clamp64(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return std::min(hi, std::max(lo, v));
}

/// MulQuantOp::compute's fixed-point requant of one accumulator with one
/// entry's constants (f includes bias_frac): returns clamp(y, lo, hi) and,
/// with ep.count_sat, counts a clip. A zero floor is exempt: it is
/// activation semantics, not saturation.
std::int64_t requant1(std::int64_t v, std::int64_t mul, std::int64_t bias,
                      std::int64_t half, int f, const Epilogue& ep,
                      std::int64_t& sat) {
  const std::int64_t y = (mul * ((v << ep.bias_frac) + bias) + half) >> f;
  if (ep.count_sat && (y > ep.hi || (ep.lo != 0 && y < ep.lo))) ++sat;
  return clamp64(y, ep.lo, ep.hi);
}

/// Worker-local scratch of `n` lanes, grown on demand and kept for the
/// thread's lifetime: every pool worker (and every calling thread) owns
/// one buffer per lane type and reuses it across calls, so steady-state
/// kernels never touch the heap. Each parallel body takes its pointer
/// once and calls nothing that asks for the same lane type.
template <typename T>
T* worker_scratch(std::int64_t n) {
  thread_local std::vector<T> buf;
  if (buf.size() < static_cast<std::size_t>(n)) {
    buf.resize(static_cast<std::size_t>(n));
  }
  return buf.data();
}

/// Merges one worker's clip count into the epilogue's shared counter.
void add_sats(const Epilogue& ep, std::int64_t sat) {
  if (ep.sat != nullptr && sat != 0) {
    ep.sat->fetch_add(sat, std::memory_order_relaxed);
  }
}

#if T2C_I8_AVX2
// GCC 12's inliner trips -Wmaybe-uninitialized on the _mm*_maskz_* builtins
// (the masked-off lanes are "uninitialized" by construction); the zeroing
// semantics are architectural, so the warning is a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// write_tile's requant on eight int64 lanes: returns clamp(y, lo, hi) and,
/// with `count`, adds the lanes of `valid` that clip to `sat` (a zero
/// floor is exempt, as in write_tile). Every lane op (vpmullq multiply,
/// vpsravq shift, min/max clamp) has the exact 64-bit wrap semantics of
/// the scalar expression, so the bits and the count match it verbatim.
__attribute__((target("avx512f,avx512dq,avx512vl"))) inline __m512i
requant8_avx512(__m512i v, __m512i vmul, __m512i vbias, __m512i vhalf,
                __m512i vf, unsigned bias_frac, __m512i vlo, __m512i vhi,
                bool count, bool check_lo, __mmask8 valid,
                std::int64_t& sat) {
  const __m512i t = _mm512_add_epi64(_mm512_slli_epi64(v, bias_frac), vbias);
  const __m512i y = _mm512_srav_epi64(
      _mm512_add_epi64(_mm512_mullo_epi64(t, vmul), vhalf), vf);
  if (count) {
    __mmask8 sm = _mm512_cmpgt_epi64_mask(y, vhi);
    if (check_lo) sm |= _mm512_cmplt_epi64_mask(y, vlo);
    sat += __builtin_popcount(static_cast<unsigned>(sm & valid));
  }
  return _mm512_min_epi64(vhi, _mm512_max_epi64(vlo, y));
}

/// AVX-512 requant writeback for int64 C lanes, 8 columns per step, bit-
/// identical to write_tile through requant8_avx512. Tail lanes are masked
/// off before the sat popcount so padding never counts.
__attribute__((target("avx512f,avx512dq,avx512vl"))) void write_tile_avx512(
    const std::int32_t* acc, std::int64_t* c, std::int64_t ldc,
    std::int64_t mr, std::int64_t jn, std::int64_t row0, std::int64_t col0,
    const Epilogue& ep, std::int64_t& sat) {
  if (ep.mode == Epilogue::Mode::kNone) {
    for (std::int64_t r = 0; r < mr; ++r) {
      for (std::int64_t j = 0; j < jn; j += 8) {
        const auto m = static_cast<__mmask8>(
            jn - j >= 8 ? 0xff : (1u << (jn - j)) - 1u);
        const __m256i a = _mm256_maskz_loadu_epi32(m, acc + r * kNr + j);
        _mm512_mask_storeu_epi64(c + r * ldc + j, m,
                                 _mm512_cvtepi32_epi64(a));
      }
    }
    return;
  }
  const __m512i vlo = _mm512_set1_epi64(ep.lo);
  const __m512i vhi = _mm512_set1_epi64(ep.hi);
  const bool check_lo = ep.lo != 0;
  const auto bias_frac = static_cast<unsigned>(ep.bias_frac);
  if (ep.mode != Epilogue::Mode::kPerCol) {
    for (std::int64_t r = 0; r < mr; ++r) {
      const auto e = static_cast<std::size_t>(
          ep.mode == Epilogue::Mode::kPerRow ? ep.base + row0 + r : 0);
      const int f = (ep.frac != nullptr ? ep.frac[e] : ep.frac0) +
                    ep.bias_frac;
      const __m512i vmul = _mm512_set1_epi64(ep.mul[e]);
      const __m512i vbias = _mm512_set1_epi64(ep.bias[e]);
      const __m512i vhalf =
          _mm512_set1_epi64(f > 0 ? (std::int64_t{1} << (f - 1)) : 0);
      const __m512i vf = _mm512_set1_epi64(f);
      for (std::int64_t j = 0; j < jn; j += 8) {
        const auto m = static_cast<__mmask8>(
            jn - j >= 8 ? 0xff : (1u << (jn - j)) - 1u);
        const __m512i v = _mm512_cvtepi32_epi64(
            _mm256_maskz_loadu_epi32(m, acc + r * kNr + j));
        _mm512_mask_storeu_epi64(
            c + r * ldc + j, m,
            requant8_avx512(v, vmul, vbias, vhalf, vf, bias_frac, vlo, vhi,
                            ep.count_sat, check_lo, m, sat));
      }
    }
    return;
  }
  // Per-column: the requant entries are contiguous in j, so the constants
  // load as vectors and amortize over the tile's rows.
  for (std::int64_t j = 0; j < jn; j += 8) {
    const auto m = static_cast<__mmask8>(
        jn - j >= 8 ? 0xff : (1u << (jn - j)) - 1u);
    const std::size_t e0 = static_cast<std::size_t>(ep.base + col0 + j);
    const __m512i vmul = _mm512_maskz_loadu_epi64(m, ep.mul + e0);
    const __m512i vbias = _mm512_maskz_loadu_epi64(m, ep.bias + e0);
    const __m512i vf = _mm512_add_epi64(
        ep.frac != nullptr
            ? _mm512_cvtepi32_epi64(
                  _mm256_maskz_loadu_epi32(m, ep.frac + e0))
            : _mm512_set1_epi64(ep.frac0),
        _mm512_set1_epi64(ep.bias_frac));
    const __mmask8 pos = _mm512_cmpgt_epi64_mask(vf, _mm512_setzero_si512());
    const __m512i vhalf = _mm512_maskz_sllv_epi64(
        pos, _mm512_set1_epi64(1),
        _mm512_sub_epi64(vf, _mm512_set1_epi64(1)));
    for (std::int64_t r = 0; r < mr; ++r) {
      const __m512i v = _mm512_cvtepi32_epi64(
          _mm256_maskz_loadu_epi32(m, acc + r * kNr + j));
      _mm512_mask_storeu_epi64(
          c + r * ldc + j, m,
          requant8_avx512(v, vmul, vbias, vhalf, vf, bias_frac, vlo, vhi,
                          ep.count_sat, check_lo, m, sat));
    }
  }
}

#pragma GCC diagnostic pop

/// The AVX-512 writeback is bit-identical to the scalar expression, so it
/// engages on tier alone (the micro-kernel choice does not constrain it).
bool avx512_epilogue() {
  return util::cpu_isa_tier() >= util::IsaTier::kAvx512;
}
#endif

/// Writes one accumulator tile into C, applying the fused requant through
/// requant1 (MulQuantOp::compute verbatim, clip count included), so a
/// fused run emits the exact bits the separate GEMM + MulQuant pair would.
template <typename OutT>
void write_tile(const std::int32_t* acc, OutT* c, std::int64_t ldc,
                std::int64_t mr, std::int64_t jn, std::int64_t row0,
                std::int64_t col0, const Epilogue& ep, std::int64_t& sat) {
#if T2C_I8_AVX2
  if constexpr (std::is_same_v<OutT, std::int64_t>) {
    if (avx512_epilogue()) {
      write_tile_avx512(acc, c, ldc, mr, jn, row0, col0, ep, sat);
      return;
    }
  }
#endif
  if (ep.mode == Epilogue::Mode::kNone) {
    for (std::int64_t r = 0; r < mr; ++r) {
      for (std::int64_t j = 0; j < jn; ++j) {
        c[r * ldc + j] = static_cast<OutT>(acc[r * kNr + j]);
      }
    }
    return;
  }
  if (ep.mode != Epilogue::Mode::kPerCol) {
    // Scalar / per-row: one requant entry covers a whole output row, so
    // the fixed-point constants hoist out of the column loop.
    for (std::int64_t r = 0; r < mr; ++r) {
      const auto e = static_cast<std::size_t>(
          ep.mode == Epilogue::Mode::kPerRow ? ep.base + row0 + r : 0);
      const int f = (ep.frac != nullptr ? ep.frac[e] : ep.frac0) +
                    ep.bias_frac;
      const std::int64_t half = f > 0 ? (std::int64_t{1} << (f - 1)) : 0;
      const std::int64_t mul_e = ep.mul[e];
      const std::int64_t bias_e = ep.bias[e];
      for (std::int64_t j = 0; j < jn; ++j) {
        c[r * ldc + j] = static_cast<OutT>(requant1(
            acc[r * kNr + j], mul_e, bias_e, half, f, ep, sat));
      }
    }
    return;
  }
  // Per-column: walk columns in the outer loop so each entry's constants
  // amortize over the tile's rows.
  for (std::int64_t j = 0; j < jn; ++j) {
    const auto e = static_cast<std::size_t>(ep.base + col0 + j);
    const int f = (ep.frac != nullptr ? ep.frac[e] : ep.frac0) +
                  ep.bias_frac;
    const std::int64_t half = f > 0 ? (std::int64_t{1} << (f - 1)) : 0;
    const std::int64_t mul_e = ep.mul[e];
    const std::int64_t bias_e = ep.bias[e];
    for (std::int64_t r = 0; r < mr; ++r) {
      c[r * ldc + j] = static_cast<OutT>(requant1(
          acc[r * kNr + j], mul_e, bias_e, half, f, ep, sat));
    }
  }
}

/// Packs columns [j0, j0 + jn) of a row-major B (all k rows) into a
/// pair-major kNr-wide int16 panel ([k2][kNr][2]), zero-padded on the
/// right edge and on an odd-k tail. Narrowing is safe by the caller's
/// int16 operand proof.
void pack_b_panel_i16(const std::int64_t* b, std::int16_t* dst,
                      std::int64_t k, std::int64_t jn, std::int64_t b_rs,
                      std::int64_t b_cs, std::int64_t j0) {
  const std::int64_t k2 = (k + 1) / 2;
  for (std::int64_t p2 = 0; p2 < k2; ++p2) {
    const std::int64_t p = 2 * p2;
    const std::int64_t* src0 = b + p * b_rs + j0 * b_cs;
    const std::int64_t* src1 = p + 1 < k ? src0 + b_rs : nullptr;
    std::int16_t* row = dst + p2 * kNr * 2;
    for (std::int64_t j = 0; j < jn; ++j) {
      row[2 * j] = static_cast<std::int16_t>(src0[j * b_cs]);
      row[2 * j + 1] =
          src1 != nullptr ? static_cast<std::int16_t>(src1[j * b_cs])
                          : std::int16_t{0};
    }
    for (std::int64_t j = jn; j < kNr; ++j) {
      row[2 * j] = 0;
      row[2 * j + 1] = 0;
    }
  }
}

/// Interleaved pair-major A pack of one kMr row block ([k2][kMr][2]),
/// edge rows and an odd-k tail zero-filled. AT is the caller's lane type.
template <typename AT>
void pack_a_block_i16(const AT* a, std::int16_t* apack, std::int64_t i0,
                      std::int64_t mr, std::int64_t k) {
  const std::int64_t k2 = (k + 1) / 2;
  for (std::int64_t p2 = 0; p2 < k2; ++p2) {
    const std::int64_t p = 2 * p2;
    std::int16_t* ap = apack + p2 * kMr * 2;
    for (std::int64_t r = 0; r < mr; ++r) {
      const AT* src = a + (i0 + r) * k + p;
      ap[2 * r] = static_cast<std::int16_t>(src[0]);
      ap[2 * r + 1] =
          p + 1 < k ? static_cast<std::int16_t>(src[1]) : std::int16_t{0};
    }
    for (std::int64_t r = mr; r < kMr; ++r) {
      ap[2 * r] = 0;
      ap[2 * r + 1] = 0;
    }
  }
}

template <typename AT, typename OutT>
void gemm_b_packed_impl(const AT* a, const PackedB& pb, OutT* c,
                        std::int64_t m, const Epilogue& ep, bool threaded,
                        MicroKernel mk) {
  const MicroKernelFn kf = resolve_micro_kernel(mk);
  const std::int64_t k = pb.k;
  const std::int64_t k2 = pb.k2;
  const std::int64_t n = pb.n;
  const std::int64_t mblocks = (m + kMr - 1) / kMr;
  const auto row_blocks = [&](std::int64_t ib0, std::int64_t ib1) {
    std::int16_t* apack = worker_scratch<std::int16_t>(kMr * k2 * 2);
    std::int32_t acc[kMr * kNr];
    std::int64_t sat = 0;
    for (std::int64_t ib = ib0; ib < ib1; ++ib) {
      const std::int64_t i0 = ib * kMr;
      const std::int64_t mr = std::min(kMr, m - i0);
      pack_a_block_i16(a, apack, i0, mr, k);
      for (std::int64_t jp = 0; jp < pb.npanels; ++jp) {
        kf(apack, pb.panels.data() + jp * k2 * kNr * 2, acc, k2);
        write_tile(acc, c + i0 * n + jp * kNr, n, mr,
                   std::min(kNr, n - jp * kNr), i0, jp * kNr, ep, sat);
      }
    }
    add_sats(ep, sat);
  };
  if (threaded) {
    par::parallel_for(0, mblocks, 1, row_blocks);
  } else {
    row_blocks(0, mblocks);
  }
}

/// Conv geometry shared by the packed and direct kernels, derived once
/// per call.
struct ConvGeom {
  std::int64_t n, h, w, hw, oh, ow, ohw, ic, oc, icg, ocg, groups;
  std::int64_t k, stride, pad;
};

ConvGeom conv_geom(std::int64_t n, std::int64_t h, std::int64_t w,
                   const ConvSpec& s) {
  ConvGeom g{};
  g.n = n;
  g.h = h;
  g.w = w;
  g.hw = h * w;
  g.oh = s.out_hw(h);
  g.ow = s.out_hw(w);
  g.ohw = g.oh * g.ow;
  g.ic = s.in_channels;
  g.oc = s.out_channels;
  g.groups = s.groups;
  g.icg = s.in_channels / s.groups;
  g.ocg = s.out_channels / s.groups;
  g.k = s.kernel;
  g.stride = s.stride;
  g.pad = s.padding;
  return g;
}

/// Valid output-column range [lo[kj], hi[kj]) of each kernel column kj:
/// ix = ox*stride + kj - pad lies in [0, w) exactly there. Hoisted out of
/// the panel fill, which then copies each tap's run without a bounds test.
void tap_col_bounds(const ConvGeom& g, std::int64_t* lo, std::int64_t* hi) {
  for (std::int64_t kj = 0; kj < g.k; ++kj) {
    const std::int64_t off = kj - g.pad;
    lo[kj] = std::min(off < 0 ? (-off + g.stride - 1) / g.stride : 0, g.ow);
    const std::int64_t u =
        g.w - 1 - off < 0 ? 0 : (g.w - 1 - off) / g.stride + 1;
    hi[kj] = std::min(std::max(u, lo[kj]), g.ow);
  }
}

/// im2col of batch columns [j0, j0 + jn) of group `grp` into one
/// pair-interleaved kNr-wide panel ([k2][kNr][2]). Column j is pixel
/// j % ohw of image j / ohw; depth p = (c*k + ki)*k + kj. The columns
/// split into runs along one output row of one image, and each tap of a
/// run copies its valid span (bounds from tap_col_bounds) into row p of
/// `rows` ([kdepth][kNr] int16, L1-resident); a second sweep interleaves
/// row pairs into the panel. Both sweeps are contiguous, so both
/// vectorize — a direct fill would store every lane at stride 2. The
/// narrowing cast is lossless by the caller's int16 operand proof.
T2C_MICROKERNEL_SIMD void fill_conv_panel(
    const std::int64_t* x, const ConvGeom& g, std::int64_t grp,
    std::int64_t j0, std::int64_t jn, std::int64_t k2, const std::int64_t* lo,
    const std::int64_t* hi, std::int16_t* rows, std::int16_t* panel) {
  const std::int64_t kdepth = g.icg * g.k * g.k;
  // Padding taps and a partial panel's right edge are the only entries no
  // run writes.
  if (g.pad > 0 || jn < kNr) {
    std::fill(rows, rows + kdepth * kNr, std::int16_t{0});
  }
  for (std::int64_t j = 0; j < jn;) {
    const std::int64_t col = j0 + j;
    const std::int64_t img = col / g.ohw;
    const std::int64_t pix = col - img * g.ohw;
    const std::int64_t oy = pix / g.ow;
    const std::int64_t ox0 = pix - oy * g.ow;
    const std::int64_t ox1 = std::min(g.ow, ox0 + (jn - j));
    const std::int64_t* xg = x + (img * g.ic + grp * g.icg) * g.hw;
    for (std::int64_t c = 0; c < g.icg; ++c) {
      for (std::int64_t ki = 0; ki < g.k; ++ki) {
        const std::int64_t iy = oy * g.stride + ki - g.pad;
        if (iy < 0 || iy >= g.h) continue;
        const std::int64_t* row = xg + c * g.hw + iy * g.w;
        for (std::int64_t kj = 0; kj < g.k; ++kj) {
          const std::int64_t p = (c * g.k + ki) * g.k + kj;
          std::int16_t* dst = rows + p * kNr + j - ox0;
          const std::int64_t a = std::max(ox0, lo[kj]);
          const std::int64_t b = std::min(ox1, hi[kj]);
          const std::int64_t ix0 = kj - g.pad;
          if (g.stride == 1) {
            for (std::int64_t ox = a; ox < b; ++ox) {
              dst[ox] = static_cast<std::int16_t>(row[ox + ix0]);
            }
          } else {
            for (std::int64_t ox = a; ox < b; ++ox) {
              dst[ox] = static_cast<std::int16_t>(row[ox * g.stride + ix0]);
            }
          }
        }
      }
    }
    j += ox1 - ox0;
  }
  for (std::int64_t p2 = 0; p2 < k2; ++p2) {
    const std::int16_t* r0 = rows + 2 * p2 * kNr;
    std::int16_t* d = panel + p2 * kNr * 2;
    if (2 * p2 + 1 < kdepth) {
      const std::int16_t* r1 = r0 + kNr;
      for (std::int64_t i = 0; i < kNr; ++i) {
        d[2 * i] = r0[i];
        d[2 * i + 1] = r1[i];
      }
    } else {  // odd-K tail
      for (std::int64_t i = 0; i < kNr; ++i) {
        d[2 * i] = r0[i];
        d[2 * i + 1] = 0;
      }
    }
  }
}

/// Minimum multiply-adds per parallel chunk of the conv kernels (about
/// 10-20 us of work), so small layers stay on one thread instead of paying
/// a pool dispatch per step.
constexpr std::int64_t kDwGrain = std::int64_t{1} << 16;
constexpr std::int64_t kConvGrain = std::int64_t{1} << 19;

/// The requant constants of a channel block, one lane per channel, with
/// write_tile's entry selection, shift and rounding half. Lanes past the
/// block's channels stay zero.
struct DwQuant {
  std::int64_t mul[kDwBlock] = {}, bias[kDwBlock] = {};
  std::int64_t half[kDwBlock] = {}, f[kDwBlock] = {};
};

DwQuant dw_quant(const Epilogue& ep, std::int64_t c0, std::int64_t nb) {
  DwQuant q;
  if (ep.mode == Epilogue::Mode::kNone) return q;
  for (std::int64_t b = 0; b < nb; ++b) {
    const auto e = static_cast<std::size_t>(
        ep.mode == Epilogue::Mode::kPerRow ? ep.base + c0 + b : 0);
    const int f = (ep.frac != nullptr ? ep.frac[e] : ep.frac0) +
                  ep.bias_frac;
    q.mul[b] = ep.mul[e];
    q.bias[b] = ep.bias[e];
    q.half[b] = f > 0 ? (std::int64_t{1} << (f - 1)) : 0;
    q.f[b] = f;
  }
  return q;
}

/// One (image, channel block) task of the direct depthwise kernel. Its
/// variant first copies the block's input channels (from `src`) into xp,
/// the zero-padded, channel-interleaved scratch: `pitch` = ICg * kDwBlock
/// int32 lanes per padded pixel, wp pixels per padded row, lane ic *
/// kDwBlock + b holding input channel ic of the block's channel b. off[t]
/// is tap t = (ic, ki, kj)'s lane offset from the window origin. Products
/// and every partial sum are bounded by the caller's accum_fits_i32 proof,
/// so int32 never wraps and each sum equals the int64 reference. Lanes
/// from nb on (a partial block) have zero weights and are never stored.
struct DwTask {
  const ConvGeom& g;
  const Epilogue& ep;
  const DwQuant& q;
  const std::int64_t* src;  ///< the image's input channel c0 * ICg
  std::int32_t* xp;
  const std::int16_t* w;  ///< the block's weights, [taps][kDwBlock]
  const std::int32_t* off;
  std::int64_t taps, wp, pitch, nb;
  std::int64_t* out;  ///< output channel c0's plane of the image
};

/// Copies the block's interior lanes b < nb into xp, one input plane at a
/// time (the padding ring is zeroed once per chunk by the caller).
void dw_fill_scalar(const DwTask& k) {
  const ConvGeom& g = k.g;
  std::int32_t* dst = k.xp + (g.pad * k.wp + g.pad) * k.pitch;
  for (std::int64_t b = 0; b < k.nb; ++b) {
    for (std::int64_t ic = 0; ic < g.icg; ++ic) {
      const std::int64_t* s = k.src + (b * g.icg + ic) * g.hw;
      std::int32_t* d = dst + ic * kDwBlock + b;
      for (std::int64_t iy = 0; iy < g.h; ++iy) {
        for (std::int64_t ix = 0; ix < g.w; ++ix) {
          d[(iy * k.wp + ix) * k.pitch] =
              static_cast<std::int32_t>(s[iy * g.w + ix]);
        }
      }
    }
  }
}

/// Requantizes one output pixel's accumulators a[0, nb) and stores channel
/// b at out[b * OH*OW].
void dw_store_scalar(const DwTask& k, const std::int32_t* a,
                     std::int64_t* out, std::int64_t& sat) {
  for (std::int64_t b = 0; b < k.nb; ++b) {
    const auto v = static_cast<std::int64_t>(a[b]);
    out[b * k.g.ohw] =
        k.ep.mode == Epilogue::Mode::kNone
            ? v
            : requant1(v, k.q.mul[b], k.q.bias[b], k.q.half[b],
                       static_cast<int>(k.q.f[b]), k.ep, sat);
  }
}

void dw_block_scalar(const DwTask& k, std::int64_t& sat) {
  const ConvGeom& g = k.g;
  dw_fill_scalar(k);
  for (std::int64_t oy = 0; oy < g.oh; ++oy) {
    for (std::int64_t ox = 0; ox < g.ow; ++ox) {
      const std::int32_t* base =
          k.xp + (oy * k.wp + ox) * g.stride * k.pitch;
      std::int32_t a[kDwBlock] = {};
      for (std::int64_t t = 0; t < k.taps; ++t) {
        const std::int32_t* xr = base + k.off[t];
        const std::int16_t* wr = k.w + t * kDwBlock;
        for (std::int64_t b = 0; b < kDwBlock; ++b) {
          a[b] += static_cast<std::int32_t>(wr[b]) * xr[b];
        }
      }
      dw_store_scalar(k, a, k.out + oy * g.ow + ox, sat);
    }
  }
}

#if T2C_I8_AVX2
// The vector variants multiply with vpmaddwd: an int32 input lane holds
// its int16-range value sign-extended, the weight lane its int16 zero-
// extended, so the high halves contribute x_hi * 0 and each lane gets
// exactly x * w — one instruction where vpmulld takes two.

/// AVX2 variant: the block's 16 channels in two 8-lane accumulators.
__attribute__((target("avx2"))) void dw_block_avx2(const DwTask& k,
                                                   std::int64_t& sat) {
  static_assert(kDwBlock == 16, "two 8-lane vectors per channel block");
  const ConvGeom& g = k.g;
  dw_fill_scalar(k);
  for (std::int64_t oy = 0; oy < g.oh; ++oy) {
    for (std::int64_t ox = 0; ox < g.ow; ++ox) {
      const std::int32_t* base =
          k.xp + (oy * k.wp + ox) * g.stride * k.pitch;
      __m256i a0 = _mm256_setzero_si256();
      __m256i a1 = _mm256_setzero_si256();
      for (std::int64_t t = 0; t < k.taps; ++t) {
        const auto* xr = reinterpret_cast<const __m256i*>(base + k.off[t]);
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(k.w + t * kDwBlock));
        a0 = _mm256_add_epi32(
            a0, _mm256_madd_epi16(
                    _mm256_loadu_si256(xr),
                    _mm256_cvtepu16_epi32(_mm256_castsi256_si128(wv))));
        a1 = _mm256_add_epi32(
            a1, _mm256_madd_epi16(
                    _mm256_loadu_si256(xr + 1),
                    _mm256_cvtepu16_epi32(_mm256_extracti128_si256(wv, 1))));
      }
      alignas(32) std::int32_t a[kDwBlock];
      _mm256_store_si256(reinterpret_cast<__m256i*>(a), a0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(a + 8), a1);
      dw_store_scalar(k, a, k.out + oy * g.ow + ox, sat);
    }
  }
}

// The same GCC 12 false positive as write_tile_avx512's.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// AVX-512 variant. The fill gathers each padded pixel's 16 channel lanes
/// from their planes into one store; the accumulator is one 16-lane vector
/// per pixel; the requant runs on two 8-lane int64 halves through
/// requant8_avx512 with the block's constants held in registers, and each
/// half scatters its channels into their NCHW planes. A partial block
/// masks its missing lanes off (they gather as zero).
__attribute__((target("avx512f,avx512dq,avx512bw,avx512vl"))) void
dw_block_avx512(const DwTask& k, std::int64_t& sat) {
  static_assert(kDwBlock == 16, "one 16-lane vector per channel block");
  const ConvGeom& g = k.g;
  const Epilogue& ep = k.ep;
  const auto m0 =
      static_cast<__mmask8>(k.nb >= 8 ? 0xff : (1u << k.nb) - 1u);
  const auto m1 = static_cast<__mmask8>(
      k.nb >= 16 ? 0xff : k.nb > 8 ? (1u << (k.nb - 8)) - 1u : 0u);
  const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i src0 =
      _mm512_mullo_epi64(lane, _mm512_set1_epi64(g.icg * g.hw));
  const __m512i src1 =
      _mm512_add_epi64(src0, _mm512_set1_epi64(8 * g.icg * g.hw));
  std::int32_t* dst = k.xp + (g.pad * k.wp + g.pad) * k.pitch;
  for (std::int64_t ic = 0; ic < g.icg; ++ic) {
    for (std::int64_t iy = 0; iy < g.h; ++iy) {
      for (std::int64_t ix = 0; ix < g.w; ++ix) {
        const std::int64_t* s = k.src + ic * g.hw + iy * g.w + ix;
        const __m256i lo = _mm512_cvtepi64_epi32(_mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), m0, src0, s, 8));
        const __m256i hi = _mm512_cvtepi64_epi32(_mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), m1, src1, s, 8));
        _mm512_storeu_si512(
            dst + (iy * k.wp + ix) * k.pitch + ic * kDwBlock,
            _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1));
      }
    }
  }
  const __m512i idx0 = _mm512_mullo_epi64(lane, _mm512_set1_epi64(g.ohw));
  const __m512i idx1 = _mm512_add_epi64(idx0, _mm512_set1_epi64(8 * g.ohw));
  const __m512i vmul0 = _mm512_loadu_si512(k.q.mul);
  const __m512i vmul1 = _mm512_loadu_si512(k.q.mul + 8);
  const __m512i vbias0 = _mm512_loadu_si512(k.q.bias);
  const __m512i vbias1 = _mm512_loadu_si512(k.q.bias + 8);
  const __m512i vhalf0 = _mm512_loadu_si512(k.q.half);
  const __m512i vhalf1 = _mm512_loadu_si512(k.q.half + 8);
  const __m512i vf0 = _mm512_loadu_si512(k.q.f);
  const __m512i vf1 = _mm512_loadu_si512(k.q.f + 8);
  const __m512i vlo = _mm512_set1_epi64(ep.lo);
  const __m512i vhi = _mm512_set1_epi64(ep.hi);
  const auto bias_frac = static_cast<unsigned>(ep.bias_frac);
  const bool requant = ep.mode != Epilogue::Mode::kNone;
  const bool check_lo = ep.lo != 0;
  for (std::int64_t oy = 0; oy < g.oh; ++oy) {
    for (std::int64_t ox = 0; ox < g.ow; ++ox) {
      const std::int32_t* base =
          k.xp + (oy * k.wp + ox) * g.stride * k.pitch;
      __m512i acc = _mm512_setzero_si512();
      for (std::int64_t t = 0; t < k.taps; ++t) {
        const __m512i wv = _mm512_cvtepu16_epi32(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(k.w + t * kDwBlock)));
        acc = _mm512_add_epi32(
            acc, _mm512_madd_epi16(_mm512_loadu_si512(base + k.off[t]), wv));
      }
      __m512i y0 = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc));
      __m512i y1 = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc, 1));
      if (requant) {
        y0 = requant8_avx512(y0, vmul0, vbias0, vhalf0, vf0, bias_frac, vlo,
                             vhi, ep.count_sat, check_lo, m0, sat);
        y1 = requant8_avx512(y1, vmul1, vbias1, vhalf1, vf1, bias_frac, vlo,
                             vhi, ep.count_sat, check_lo, m1, sat);
      }
      std::int64_t* o = k.out + oy * g.ow + ox;
      _mm512_mask_i64scatter_epi64(o, m0, idx0, y0, 8);
      if (m1 != 0) _mm512_mask_i64scatter_epi64(o, m1, idx1, y1, 8);
    }
  }
}
#pragma GCC diagnostic pop
#endif  // T2C_I8_AVX2

}  // namespace

bool accum_fits_i32(std::int64_t k, std::int64_t a_max, std::int64_t w_max) {
  if (k <= 0 || a_max < 0 || w_max < 0) return false;
  if (a_max > kOperandMax || w_max > kOperandMax) return false;
  const __int128 bound = static_cast<__int128>(k) * a_max * w_max;
  return bound < (static_cast<__int128>(1) << 31);
}

std::int64_t PackedB::bytes() const {
  return static_cast<std::int64_t>(panels.size() * sizeof(std::int16_t) +
                                   col_offsets.size() * sizeof(std::int32_t));
}

std::shared_ptr<const PackedB> pack_b(const std::int64_t* b, std::int64_t k,
                                      std::int64_t n, bool trans_b) {
  auto pb = std::make_shared<PackedB>();
  pb->k = k;
  pb->n = n;
  pb->npanels = (n + kNr - 1) / kNr;
  pb->k2 = (k + 1) / 2;
  pb->panels.resize(static_cast<std::size_t>(pb->npanels * pb->k2 * kNr * 2));
  pb->col_offsets.resize(static_cast<std::size_t>(n));
  const std::int64_t b_rs = trans_b ? 1 : n;
  const std::int64_t b_cs = trans_b ? k : 1;
  for (std::int64_t jp = 0; jp < pb->npanels; ++jp) {
    pack_b_panel_i16(b, pb->panels.data() + jp * pb->k2 * kNr * 2, k,
                     std::min(kNr, n - jp * kNr), b_rs, b_cs, jp * kNr);
  }
  for (std::int64_t j = 0; j < n; ++j) {
    std::int64_t sum = 0;
    for (std::int64_t p = 0; p < k; ++p) sum += b[p * b_rs + j * b_cs];
    pb->col_offsets[static_cast<std::size_t>(j)] =
        static_cast<std::int32_t>(sum);
  }
  return pb;
}

std::int64_t PackedA::bytes() const {
  return static_cast<std::int64_t>(blocks.size() * sizeof(std::int16_t) +
                                   row_offsets.size() * sizeof(std::int32_t));
}

std::shared_ptr<const PackedA> pack_a(const std::int64_t* a, std::int64_t m,
                                      std::int64_t k, std::int64_t groups) {
  auto pa = std::make_shared<PackedA>();
  pa->m = m;
  pa->k = k;
  pa->groups = groups;
  pa->mblocks = (m + kMr - 1) / kMr;
  pa->k2 = (k + 1) / 2;
  pa->blocks.resize(
      static_cast<std::size_t>(groups * pa->mblocks * pa->k2 * kMr * 2));
  pa->row_offsets.resize(static_cast<std::size_t>(groups * m));
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int64_t* ag = a + g * m * k;
    for (std::int64_t ib = 0; ib < pa->mblocks; ++ib) {
      const std::int64_t i0 = ib * kMr;
      pack_a_block_i16(
          ag,
          pa->blocks.data() + (g * pa->mblocks + ib) * pa->k2 * kMr * 2, i0,
          std::min(kMr, m - i0), k);
    }
    for (std::int64_t r = 0; r < m; ++r) {
      std::int64_t sum = 0;
      for (std::int64_t p = 0; p < k; ++p) sum += ag[r * k + p];
      pa->row_offsets[static_cast<std::size_t>(g * m + r)] =
          static_cast<std::int32_t>(sum);
    }
  }
  return pa;
}

void gemm_b_packed(const std::int64_t* a, const PackedB& pb, std::int64_t* c,
                   std::int64_t m, const Epilogue& ep, bool threaded,
                   MicroKernel mk) {
  gemm_b_packed_impl(a, pb, c, m, ep, threaded, mk);
}

void gemm_b_packed(const std::int64_t* a, const PackedB& pb, std::int16_t* c,
                   std::int64_t m, const Epilogue& ep, bool threaded,
                   MicroKernel mk) {
  gemm_b_packed_impl(a, pb, c, m, ep, threaded, mk);
}

void gemm_b_packed(const std::int16_t* a, const PackedB& pb, std::int64_t* c,
                   std::int64_t m, const Epilogue& ep, bool threaded,
                   MicroKernel mk) {
  gemm_b_packed_impl(a, pb, c, m, ep, threaded, mk);
}

std::int64_t PackedDw::bytes() const {
  return static_cast<std::int64_t>(w.size() * sizeof(std::int16_t));
}

std::shared_ptr<const PackedDw> pack_dw(const std::int64_t* w,
                                        std::int64_t channels,
                                        std::int64_t taps) {
  auto pw = std::make_shared<PackedDw>();
  pw->channels = channels;
  pw->taps = taps;
  pw->blocks = (channels + kDwBlock - 1) / kDwBlock;
  pw->w.resize(static_cast<std::size_t>(pw->blocks * taps * kDwBlock));
  for (std::int64_t c = 0; c < channels; ++c) {
    const std::int64_t blk = c / kDwBlock;
    for (std::int64_t t = 0; t < taps; ++t) {
      pw->w[static_cast<std::size_t>((blk * taps + t) * kDwBlock + c -
                                     blk * kDwBlock)] =
          static_cast<std::int16_t>(w[c * taps + t]);
    }
  }
  return pw;
}

void conv_packed(const std::int64_t* x, std::int64_t n, std::int64_t h,
                 std::int64_t w, const ConvSpec& spec, const PackedA& pa,
                 std::int64_t* out, const Epilogue& ep, bool threaded,
                 MicroKernel mk) {
  const MicroKernelFn kf = resolve_micro_kernel(mk);
  const ConvGeom g = conv_geom(n, h, w, spec);
  const std::int64_t cols = g.n * g.ohw;
  const std::int64_t npanels = (cols + kNr - 1) / kNr;
  const std::int64_t panel_tasks = g.groups * npanels;
  // Too few panels would idle pool workers (a 1x1 map folds a whole batch
  // into one panel), so then each panel's row blocks split into slices.
  // A worker fills a panel once for its consecutive slices; a lone thread
  // never splits, so it never fills twice.
  const std::int64_t slices = std::clamp<std::int64_t>(
      threaded ? par::max_threads() / panel_tasks : 1, 1, pa.mblocks);
  const std::int64_t slice_blocks = (pa.mblocks + slices - 1) / slices;
  // The caller's int64 scratch holds the tap bounds; tasks take only int16.
  std::int64_t* lo = worker_scratch<std::int64_t>(2 * g.k);
  std::int64_t* hi = lo + g.k;
  tap_col_bounds(g, lo, hi);
  const auto tasks = [&](std::int64_t t0, std::int64_t t1) {
    std::int16_t* panel =
        worker_scratch<std::int16_t>(pa.k2 * kNr * 2 + pa.k * kNr);
    std::int16_t* rows = panel + pa.k2 * kNr * 2;
    std::int32_t acc[kMr * kNr];
    std::int64_t filled = -1;
    std::int64_t sat = 0;
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t pt = t / slices;
      const std::int64_t grp = pt / npanels;
      const std::int64_t j0 = (pt - grp * npanels) * kNr;
      const std::int64_t jn = std::min(kNr, cols - j0);
      if (pt != filled) {
        fill_conv_panel(x, g, grp, j0, jn, pa.k2, lo, hi, rows, panel);
        filled = pt;
      }
      Epilogue epg = ep;
      epg.base = grp * g.ocg;  // per-row entries index the channel axis
      const std::int64_t ib0 = (t - pt * slices) * slice_blocks;
      const std::int64_t ib1 = std::min(ib0 + slice_blocks, pa.mblocks);
      for (std::int64_t ib = ib0; ib < ib1; ++ib) {
        const std::int64_t i0 = ib * kMr;
        const std::int64_t mr = std::min(kMr, pa.m - i0);
        kf(pa.blocks.data() + (grp * pa.mblocks + ib) * pa.k2 * kMr * 2,
           panel, acc, pa.k2);
        // Scatter the tile's column runs back to their images.
        for (std::int64_t j = 0; j < jn;) {
          const std::int64_t img = (j0 + j) / g.ohw;
          const std::int64_t pix = j0 + j - img * g.ohw;
          const std::int64_t len = std::min(jn - j, g.ohw - pix);
          write_tile(acc + j,
                     out + (img * g.oc + grp * g.ocg + i0) * g.ohw + pix,
                     g.ohw, mr, len, i0, j, epg, sat);
          j += len;
        }
      }
    }
    add_sats(ep, sat);
  };
  const std::int64_t ntasks = panel_tasks * slices;
  if (threaded) {
    par::parallel_for(
        0, ntasks,
        std::max<std::int64_t>(1, kConvGrain / (slice_blocks * kMr * pa.k *
                                                kNr)),
        tasks);
  } else {
    tasks(0, ntasks);
  }
}

void dwconv(const std::int64_t* x, std::int64_t n, std::int64_t h,
            std::int64_t w, const ConvSpec& spec, const PackedDw& pw,
            std::int64_t* out, const Epilogue& ep) {
  check(ep.mode != Epilogue::Mode::kPerCol,
        "dwconv: requant entries index channels (kScalar or kPerRow)");
  const ConvGeom g = conv_geom(n, h, w, spec);
  const std::int64_t wp = g.w + 2 * g.pad;
  const std::int64_t pitch = g.icg * kDwBlock;
  const std::int64_t xp_lanes = (g.h + 2 * g.pad) * wp * pitch;
  void (*block)(const DwTask&, std::int64_t&) = dw_block_scalar;
#if T2C_I8_AVX2
  const util::IsaTier tier = util::cpu_isa_tier();
  if (tier >= util::IsaTier::kAvx512) {
    block = dw_block_avx512;
  } else if (tier >= util::IsaTier::kAvx2) {
    block = dw_block_avx2;
  }
#endif
  const std::int64_t grain = std::max<std::int64_t>(
      1, kDwGrain / (kDwBlock * g.ohw * pw.taps));
  // Tasks run block-major, so the tasks of a chunk share their block's
  // weights and requant constants.
  par::parallel_for(
      0, pw.blocks * g.n, grain, [&](std::int64_t t0, std::int64_t t1) {
        std::int32_t* xp = worker_scratch<std::int32_t>(xp_lanes + pw.taps);
        std::int32_t* off = xp + xp_lanes;
        for (std::int64_t ic = 0, t = 0; ic < g.icg; ++ic) {
          for (std::int64_t ki = 0; ki < g.k; ++ki) {
            for (std::int64_t kj = 0; kj < g.k; ++kj) {
              off[t++] = static_cast<std::int32_t>((ki * wp + kj) * pitch +
                                                   ic * kDwBlock);
            }
          }
        }
        // Only interior lanes are rewritten below, so the padding ring
        // stays zero for the whole chunk.
        std::fill(xp, xp + xp_lanes, 0);
        DwQuant q;
        std::int64_t sat = 0;
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t blk = t / g.n;
          const std::int64_t img = t - blk * g.n;
          const std::int64_t c0 = blk * kDwBlock;
          const std::int64_t nb = std::min(kDwBlock, g.oc - c0);
          if (t == t0 || img == 0) q = dw_quant(ep, c0, nb);
          // Output channel c0 + b reads input channels (c0 + b) * ICg + ic.
          block(DwTask{g, ep, q, x + (img * g.ic + c0 * g.icg) * g.hw, xp,
                       pw.w.data() + blk * pw.taps * kDwBlock, off, pw.taps,
                       wp, pitch, nb, out + (img * g.oc + c0) * g.ohw},
                sat);
        }
        add_sats(ep, sat);
      });
}

}  // namespace i8

}  // namespace t2c
