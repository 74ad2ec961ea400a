#include "tensor/int8_gemm.h"

#include <algorithm>
#include <cstring>

#include "core/parallel.h"
#include "tensor/avx512_lanes.h"
#include "tensor/requant.h"
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
/// The depth pair (a[2r], a[2r+1]) of row r as one int32 broadcast lane.
inline std::int32_t a_pair(const std::int16_t* ap, std::int64_t r) {
  std::int32_t pair;
  std::memcpy(&pair, ap + 2 * r, sizeof(pair));
  return pair;
}

/// vpmaddwd micro-kernel: each madd multiplies 16 int16 lanes and adds
/// adjacent products, yielding a0*b0 + a1*b1 for eight columns — exactly
/// one packed depth pair. The pairwise sum is wrap-free unconditionally
/// (operands are clamped to kOperandMax, and 2 · 32767² < 2^31); the
/// running int32 adds are covered by the caller's accum_fits_i32 proof.
/// 16 ymm accumulators hold four rows, so the 8-row block runs as two
/// 4-row halves over the same panel. Pure integer arithmetic in a fixed
/// order: bit-identical to the scalar kernel at any thread count.
__attribute__((target("avx2"))) void micro_kernel_avx2(
    const std::int16_t* apack, const std::int16_t* bpanel, std::int32_t* acc,
    std::int64_t k2) {
  static_assert(kMr == 8 && kNr == 32, "register tiling assumes 8x32");
  constexpr std::int64_t kHalf = kMr / 2;
  for (std::int64_t r0 = 0; r0 < kMr; r0 += kHalf) {
    __m256i vacc[kHalf][kNr / 8];
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
      const std::int16_t* ap = apack + (p2 * kMr + r0) * 2;
      for (std::int64_t r = 0; r < kHalf; ++r) {
        const __m256i av = _mm256_set1_epi32(a_pair(ap, r));
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
    for (std::int64_t r = 0; r < kHalf; ++r) {
      auto* out = reinterpret_cast<__m256i*>(acc + (r0 + r) * kNr);
      for (std::int64_t v = 0; v < kNr / 8; ++v) {
        _mm256_storeu_si256(out + v, vacc[r][v]);
      }
    }
  }
}

/// AVX-512 variant: one 512-bit load covers 16 columns of a pair row, so
/// each depth pair is 2 loads + per row (broadcast, 2 madd, 2 add), and
/// the 8x32 tile is 16 zmm accumulators. Same exact integer arithmetic,
/// same wrap-free bounds.
__attribute__((target("avx512bw"))) void micro_kernel_avx512(
    const std::int16_t* apack, const std::int16_t* bpanel, std::int32_t* acc,
    std::int64_t k2) {
  static_assert(kMr == 8 && kNr == 32, "register tiling assumes 8x32");
  __m512i vacc[kMr][kNr / 16];
  for (auto& row : vacc) {
    for (auto& v : row) v = _mm512_setzero_si512();
  }
  for (std::int64_t p2 = 0; p2 < k2; ++p2) {
    const auto* bp = reinterpret_cast<const __m512i*>(bpanel + p2 * kNr * 2);
    const __m512i b0 = _mm512_loadu_si512(bp + 0);
    const __m512i b1 = _mm512_loadu_si512(bp + 1);
    const std::int16_t* ap = apack + p2 * kMr * 2;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const __m512i av = _mm512_set1_epi32(a_pair(ap, r));
      vacc[r][0] = _mm512_add_epi32(vacc[r][0], _mm512_madd_epi16(av, b0));
      vacc[r][1] = _mm512_add_epi32(vacc[r][1], _mm512_madd_epi16(av, b1));
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) {
    auto* out = reinterpret_cast<__m512i*>(acc + r * kNr);
    _mm512_storeu_si512(out + 0, vacc[r][0]);
    _mm512_storeu_si512(out + 1, vacc[r][1]);
  }
}

/// micro_kernel_avx512 with one vpdpwssd per multiply-add instead of
/// vpmaddwd + vpaddd. It is the non-saturating form, so it wraps exactly
/// like vpaddd — and never wraps here, by the caller's accum_fits_i32
/// proof — hence the same bits. (vpdpwssds would differ only past that
/// proof.) A separate function, not a template over the add: with VNNI
/// enabled the compiler may fuse the plain kernel's madd + add as well.
__attribute__((target("avx512bw,avx512vnni"))) void micro_kernel_vnni(
    const std::int16_t* apack, const std::int16_t* bpanel, std::int32_t* acc,
    std::int64_t k2) {
  static_assert(kMr == 8 && kNr == 32, "register tiling assumes 8x32");
  __m512i vacc[kMr][kNr / 16];
  for (auto& row : vacc) {
    for (auto& v : row) v = _mm512_setzero_si512();
  }
  for (std::int64_t p2 = 0; p2 < k2; ++p2) {
    const auto* bp = reinterpret_cast<const __m512i*>(bpanel + p2 * kNr * 2);
    const __m512i b0 = _mm512_loadu_si512(bp + 0);
    const __m512i b1 = _mm512_loadu_si512(bp + 1);
    const std::int16_t* ap = apack + p2 * kMr * 2;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const __m512i av = _mm512_set1_epi32(a_pair(ap, r));
      vacc[r][0] = _mm512_dpwssd_epi32(vacc[r][0], av, b0);
      vacc[r][1] = _mm512_dpwssd_epi32(vacc[r][1], av, b1);
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

/// The micro-kernel of the current util::cpu_isa_tier() rung: vpdpwssd at
/// avx512vnni, vpmaddwd + vpaddd at avx512 and avx2, the scalar mirror
/// below. The pointer is taken once per GEMM call and shared by every
/// worker, so all threads run the same variant; the variants compute
/// identical integer arithmetic anyway, so even a mid-run tier change
/// could not alter the bits.
MicroKernelFn resolve_micro_kernel() {
#if T2C_I8_AVX2
  const util::IsaTier tier = util::cpu_isa_tier();
  if (tier >= util::IsaTier::kAvx512Vnni) return micro_kernel_vnni;
  if (tier >= util::IsaTier::kAvx512) return micro_kernel_avx512;
  if (tier >= util::IsaTier::kAvx2) return micro_kernel_avx2;
#endif
  return micro_kernel_i16;
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

/// The constants of requant entry `e` (an index into ep's arrays): f
/// includes bias_frac, half is its rounding term.
struct Entry {
  std::int64_t mul, bias, half;
  int f;
};

Entry entry(const Epilogue& ep, std::int64_t e) {
  const auto i = static_cast<std::size_t>(e);
  const int f = (ep.frac != nullptr ? ep.frac[i] : ep.frac0) + ep.bias_frac;
  return {ep.mul[i], ep.bias[i], rq::round_half(f), f};
}

/// The entry of block row r for kScalar and kPerRow.
std::int64_t row_entry(const Epilogue& ep, std::int64_t row) {
  return ep.mode == Epilogue::Mode::kPerRow ? ep.base + row : 0;
}

/// i8::requant through requant1.
template <typename SrcT, typename DstT>
void requant_scalar(const SrcT* src, std::int64_t lds, DstT* dst,
                    std::int64_t ldd, std::int64_t rows, std::int64_t cols,
                    std::int64_t row0, std::int64_t col0, const Epilogue& ep,
                    std::int64_t& sat) {
  if (ep.mode == Epilogue::Mode::kNone) {
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t j = 0; j < cols; ++j) {
        dst[r * ldd + j] = static_cast<DstT>(src[r * lds + j]);
      }
    }
    return;
  }
  const rq::Clip clip{ep.lo, ep.hi, ep.sat != nullptr};
  if (ep.mode != Epilogue::Mode::kPerCol) {
    // One entry covers a whole row, so its constants hoist out of the
    // column loop.
    for (std::int64_t r = 0; r < rows; ++r) {
      const Entry q = entry(ep, row_entry(ep, row0 + r));
      for (std::int64_t j = 0; j < cols; ++j) {
        dst[r * ldd + j] = static_cast<DstT>(
            rq::requant1(src[r * lds + j], q.mul, q.bias, q.half, q.f,
                         ep.bias_frac, clip, sat));
      }
    }
    return;
  }
  // Per column: walk columns in the outer loop so each entry's constants
  // amortize over the rows.
  for (std::int64_t j = 0; j < cols; ++j) {
    const Entry q = entry(ep, ep.base + col0 + j);
    for (std::int64_t r = 0; r < rows; ++r) {
      dst[r * ldd + j] = static_cast<DstT>(
          rq::requant1(src[r * lds + j], q.mul, q.bias, q.half, q.f,
                       ep.bias_frac, clip, sat));
    }
  }
}

#if T2C_I8_AVX2
// GCC 12's inliner trips -Wmaybe-uninitialized on the _mm*_maskz_* builtins
// (the masked-off lanes are "uninitialized" by construction); the zeroing
// semantics are architectural, so the warning is a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// i8::requant through requant8_avx512, eight columns per step. Tail lanes
/// are masked off, so padding is neither stored nor counted.
template <typename SrcT, typename DstT>
__attribute__((target("avx512f,avx512dq,avx512vl"))) void requant_avx512(
    const SrcT* src, std::int64_t lds, DstT* dst, std::int64_t ldd,
    std::int64_t rows, std::int64_t cols, std::int64_t row0,
    std::int64_t col0, const Epilogue& ep, std::int64_t& sat) {
  if (ep.mode == Epilogue::Mode::kNone) {
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t j = 0; j < cols; j += 8) {
        const __mmask8 m = avx512::tail8(cols - j);
        avx512::store8(dst + r * ldd + j, m,
                       avx512::load8(src + r * lds + j, m));
      }
    }
    return;
  }
  const rq::Clip clip{ep.lo, ep.hi, ep.sat != nullptr};
  const __m512i vlo = _mm512_set1_epi64(ep.lo);
  const __m512i vhi = _mm512_set1_epi64(ep.hi);
  const auto bias_frac = static_cast<unsigned>(ep.bias_frac);
  if (ep.mode != Epilogue::Mode::kPerCol) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const Entry q = entry(ep, row_entry(ep, row0 + r));
      const __m512i vmul = _mm512_set1_epi64(q.mul);
      const __m512i vbias = _mm512_set1_epi64(q.bias);
      const __m512i vhalf = _mm512_set1_epi64(q.half);
      const __m512i vf = _mm512_set1_epi64(q.f);
      for (std::int64_t j = 0; j < cols; j += 8) {
        const __mmask8 m = avx512::tail8(cols - j);
        avx512::store8(dst + r * ldd + j, m,
                       rq::requant8_avx512(avx512::load8(src + r * lds + j, m),
                                           vmul, vbias, vhalf, vf, bias_frac,
                                           vlo, vhi, clip, m, sat));
      }
    }
    return;
  }
  // Per column: the entries are contiguous in j, so the constants load as
  // vectors and amortize over the rows.
  for (std::int64_t j = 0; j < cols; j += 8) {
    const __mmask8 m = avx512::tail8(cols - j);
    const std::int64_t e0 = ep.base + col0 + j;
    const __m512i vmul = avx512::load8(ep.mul + e0, m);
    const __m512i vbias = avx512::load8(ep.bias + e0, m);
    const __m512i vf = _mm512_add_epi64(
        ep.frac != nullptr ? avx512::load8(ep.frac + e0, m)
                           : _mm512_set1_epi64(ep.frac0),
        _mm512_set1_epi64(ep.bias_frac));
    const __mmask8 pos = _mm512_cmpgt_epi64_mask(vf, _mm512_setzero_si512());
    const __m512i vhalf = _mm512_maskz_sllv_epi64(
        pos, _mm512_set1_epi64(1),
        _mm512_sub_epi64(vf, _mm512_set1_epi64(1)));
    for (std::int64_t r = 0; r < rows; ++r) {
      avx512::store8(dst + r * ldd + j, m,
                     rq::requant8_avx512(avx512::load8(src + r * lds + j, m),
                                         vmul, vbias, vhalf, vf, bias_frac,
                                         vlo, vhi, clip, m, sat));
    }
  }
}
#pragma GCC diagnostic pop
#endif

template <typename SrcT, typename DstT>
void requant_block(const SrcT* src, std::int64_t lds, DstT* dst,
                   std::int64_t ldd, std::int64_t rows, std::int64_t cols,
                   std::int64_t row0, std::int64_t col0, const Epilogue& ep,
                   std::int64_t& sat) {
#if T2C_I8_AVX2
  if (rq::avx512_tier()) {
    requant_avx512(src, lds, dst, ldd, rows, cols, row0, col0, ep, sat);
    return;
  }
#endif
  requant_scalar(src, lds, dst, ldd, rows, cols, row0, col0, ep, sat);
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
                        std::int64_t m, const Epilogue& ep, bool threaded) {
  const MicroKernelFn kf = resolve_micro_kernel();
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
        requant(acc, kNr, c + i0 * n + jp * kNr, n, mr,
                std::min(kNr, n - jp * kNr), i0, jp * kNr, ep, sat);
      }
    }
    rq::add_sats(ep.sat, sat);
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

/// The offset table of one kNr-column conv panel (batch columns [j0, j0 +
/// jn) of one group). src[j] is the x offset of column j's window origin:
/// its image, the group's first input channel, input row oy*stride - pad
/// and input column ox*stride - pad. Bit j of vy[ki] (vx[kj]) is set when
/// that column's input row (column) under kernel row ki (column kj) lies
/// inside the map; columns at or past jn have no bit set. Depth row p =
/// (c*k + ki)*k + kj of the panel — PackedA's K order — then reads
/// x[src[j] + c*h*w + ki*w + kj] where bit j of vy[ki] & vx[kj] is set
/// and 0 elsewhere. Bit q of `contig` marks an 8-column group whose
/// sources are consecutive (stride 1 within one output row).
struct PanelTable {
  static_assert(kNr == 32, "one 32-bit validity mask per panel");
  std::int64_t src[kNr];
  std::uint32_t* vy;  ///< [k], worker scratch
  std::uint32_t* vx;  ///< [k], worker scratch
  unsigned contig;
};

/// Output columns [lo[kj], hi[kj]) whose input column ox*stride - pad + kj
/// lies in [0, w), per kernel column kj: derived once per call, so the
/// table build divides by the stride nowhere else.
void tap_col_bounds(const ConvGeom& g, std::int64_t* lo, std::int64_t* hi) {
  for (std::int64_t kj = 0; kj < g.k; ++kj) {
    const std::int64_t off = kj - g.pad;
    lo[kj] = std::min(off < 0 ? (-off + g.stride - 1) / g.stride : 0, g.ow);
    const std::int64_t u =
        g.w - 1 - off < 0 ? 0 : (g.w - 1 - off) / g.stride + 1;
    hi[kj] = std::min(std::max(u, lo[kj]), g.ow);
  }
}

/// Columns [a, b) of a panel as a mask (0 <= a <= b <= kNr).
std::uint32_t column_bits(std::int64_t a, std::int64_t b) {
  return static_cast<std::uint32_t>(((std::uint64_t{1} << b) - 1) &
                                    ~((std::uint64_t{1} << a) - 1));
}

/// Builds the table one output-row run at a time: two divisions per
/// panel, and per run K mask updates for the rows and K for the columns
/// (bounds from tap_col_bounds) instead of 2K per column.
void build_panel_table(const ConvGeom& g, std::int64_t grp, std::int64_t j0,
                       std::int64_t jn, const std::int64_t* lo,
                       const std::int64_t* hi, PanelTable& t) {
  std::fill(t.vy, t.vy + g.k, 0u);
  std::fill(t.vx, t.vx + g.k, 0u);
  std::int64_t img = j0 / g.ohw;
  const std::int64_t pix = j0 - img * g.ohw;
  std::int64_t oy = pix / g.ow;
  std::int64_t ox = pix - oy * g.ow;
  for (std::int64_t j = 0; j < jn;) {
    const std::int64_t len = std::min(jn - j, g.ow - ox);
    const std::int64_t iy = oy * g.stride - g.pad;
    const std::int64_t origin =
        (img * g.ic + grp * g.icg) * g.hw + iy * g.w - g.pad;
    for (std::int64_t i = 0; i < len; ++i) {
      t.src[j + i] = origin + (ox + i) * g.stride;
    }
    const std::uint32_t run = column_bits(j, j + len);
    for (std::int64_t ki = 0; ki < g.k; ++ki) {
      if (iy + ki >= 0 && iy + ki < g.h) t.vy[ki] |= run;
    }
    for (std::int64_t kj = 0; kj < g.k; ++kj) {
      const std::int64_t a = std::max(ox, lo[kj]);
      const std::int64_t b = std::min(ox + len, hi[kj]);
      if (a < b) t.vx[kj] |= column_bits(j + a - ox, j + b - ox);
    }
    j += len;
    ox += len;
    if (ox == g.ow) {
      ox = 0;
      if (++oy == g.oh) {
        oy = 0;
        ++img;
      }
    }
  }
  std::fill(t.src + jn, t.src + kNr, 0);  // never read: no mask bit
  t.contig = 0;
  for (std::int64_t q = 0; q < kNr / 8; ++q) {
    bool run = true;
    for (std::int64_t i = 1; i < 8 && 8 * q + i < jn; ++i) {
      run = run && t.src[8 * q + i] == t.src[8 * q] + i;
    }
    if (run) t.contig |= 1u << q;
  }
}

/// Walks the depth rows p = (c, ki, kj) in order, tracking row p's offset
/// c*h*w + ki*w + kj from a column's window origin.
struct DepthCursor {
  explicit DepthCursor(const ConvGeom& geom)
      : g(geom), kdepth(geom.icg * geom.k * geom.k) {}
  /// Row p's valid columns; none past the last row (an odd-K tail).
  std::uint32_t mask(const PanelTable& t) const {
    return p < kdepth ? t.vy[ki] & t.vx[kj] : 0u;
  }
  void next() {
    ++p;
    ++off;
    if (++kj < g.k) return;
    kj = 0;
    off += g.w - g.k;  // to (c, ki + 1, 0)
    if (++ki < g.k) return;
    ki = 0;
    off += g.hw - g.k * g.w;  // to (c + 1, 0, 0)
  }

  const ConvGeom& g;
  std::int64_t kdepth, p = 0, ki = 0, kj = 0, off = 0;
};

/// Fills the pair-interleaved panel ([k2][kNr][2]) from the table, one
/// lane at a time: the generic rung's fill, and (gathers are not
/// instrumented) the one a sanitized build checks the table's bounds with.
/// The narrowing cast is lossless by the caller's int16 operand proof.
void fill_panel_generic(const std::int64_t* x, const ConvGeom& g,
                        const PanelTable& t, std::int64_t k2,
                        std::int16_t* panel) {
  for (DepthCursor cur(g); cur.p < 2 * k2; cur.next()) {
    const std::uint32_t m = cur.mask(t);
    const std::int64_t* base = x + cur.off;
    std::int16_t* d = panel + (cur.p / 2) * kNr * 2 + cur.p % 2;
    for (std::int64_t j = 0; j < kNr; ++j) {
      d[2 * j] = ((m >> j) & 1u) != 0
                     ? static_cast<std::int16_t>(base[t.src[j]])
                     : std::int16_t{0};
    }
  }
}

#if T2C_I8_AVX2
/// Four columns [4u, 4u + 4) of one depth row as int64 lanes, for the AVX2
/// fill: a masked load when their group is consecutive, a masked gather
/// through the table's offsets otherwise, zero when none is valid.
/// Masked-off lanes are never read, so a load's start may lie before x.
__attribute__((target("avx2"))) inline __m256i fill_quad_avx2(
    const std::int64_t* base, std::uint32_t m, std::int64_t u,
    const PanelTable& t) {
  // Lane i of entry b is all ones where bit i of b is set.
  alignas(32) static constexpr std::int64_t kLanes[16][4] = {
      {0, 0, 0, 0},   {-1, 0, 0, 0},   {0, -1, 0, 0},   {-1, -1, 0, 0},
      {0, 0, -1, 0},  {-1, 0, -1, 0},  {0, -1, -1, 0},  {-1, -1, -1, 0},
      {0, 0, 0, -1},  {-1, 0, 0, -1},  {0, -1, 0, -1},  {-1, -1, 0, -1},
      {0, 0, -1, -1}, {-1, 0, -1, -1}, {0, -1, -1, -1}, {-1, -1, -1, -1}};
  const std::uint32_t mq = (m >> (4 * u)) & 0xfu;
  if (mq == 0) return _mm256_setzero_si256();
  const __m256i lanes =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(kLanes[mq]));
  if (((t.contig >> (u / 2)) & 1u) != 0) {
    return _mm256_maskload_epi64(
        reinterpret_cast<const long long*>(base + t.src[4 * u]), lanes);
  }
  return _mm256_mask_i64gather_epi64(
      _mm256_setzero_si256(), reinterpret_cast<const long long*>(base),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t.src + 4 * u)),
      lanes, 8);
}

/// AVX2 fill: per depth pair and 4-column quad, row p+1's lanes shift up
/// one int16 and blend over row p's, so each int64 lane's low int32 is
/// the column's (p, p+1) pair; vpermd packs the four pairs into 16 bytes
/// of the panel.
__attribute__((target("avx2"))) void fill_panel_avx2(const std::int64_t* x,
                                                     const ConvGeom& g,
                                                     const PanelTable& t,
                                                     std::int64_t k2,
                                                     std::int16_t* panel) {
  const __m256i low_dwords = _mm256_set_epi32(7, 5, 3, 1, 6, 4, 2, 0);
  DepthCursor cur(g);
  for (std::int64_t p2 = 0; p2 < k2; ++p2) {
    const std::uint32_t m0 = cur.mask(t);
    const std::int64_t* b0 = x + cur.off;
    cur.next();
    const std::uint32_t m1 = cur.mask(t);
    const std::int64_t* b1 = x + cur.off;
    cur.next();
    std::int16_t* d = panel + p2 * kNr * 2;
    for (std::int64_t u = 0; u < kNr / 4; ++u) {
      const __m256i pairs = _mm256_blend_epi16(
          fill_quad_avx2(b0, m0, u, t),
          _mm256_slli_epi64(fill_quad_avx2(b1, m1, u, t), 16), 0xaa);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(d + 8 * u),
                       _mm256_castsi256_si128(
                           _mm256_permutevar8x32_epi32(pairs, low_dwords)));
    }
  }
}

/// One depth row of the AVX-512 fill as four 8-column groups of int64
/// lanes: a consecutive group is one masked load, any other a masked
/// gather through the table's offsets, and a group with no valid column
/// is zero. Masked-off lanes are never read, so a load's start may lie
/// before x.
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) inline void
fill_row_avx512(const std::int64_t* base, std::uint32_t m,
                const PanelTable& t, const __m512i* vsrc, __m512i* row) {
  for (std::int64_t q = 0; q < kNr / 8; ++q) {
    const auto mq = static_cast<__mmask8>(m >> (8 * q));
    if (mq == 0) {
      row[q] = _mm512_setzero_si512();
    } else if (((t.contig >> q) & 1u) != 0) {
      row[q] = _mm512_maskz_loadu_epi64(mq, base + t.src[8 * q]);
    } else {
      row[q] = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), mq,
                                           vsrc[q], base, 8);
    }
  }
}

/// AVX-512 fill: per depth pair, rows p and p+1 load as 8-column groups
/// (fill_row_avx512), and one vpermt2w per group picks each lane's low
/// int16 from both rows in pair order — narrowing and interleaving in one
/// shuffle — and stores the 16 int16 of its low half straight into the
/// panel.
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) void
fill_panel_avx512(const std::int64_t* x, const ConvGeom& g,
                  const PanelTable& t, std::int64_t k2, std::int16_t* panel) {
  // Word 4i of a group holds column i's low int16; source 2 starts at 32.
  alignas(64) static constexpr std::int16_t kPick[32] = {
      0, 32, 4, 36, 8, 40, 12, 44, 16, 48, 20, 52, 24, 56, 28, 60};
  const __m512i pick = _mm512_load_si512(kPick);
  __m512i vsrc[kNr / 8];
  for (std::int64_t q = 0; q < kNr / 8; ++q) {
    vsrc[q] = _mm512_loadu_si512(t.src + 8 * q);
  }
  DepthCursor cur(g);
  __m512i r0[kNr / 8], r1[kNr / 8];
  for (std::int64_t p2 = 0; p2 < k2; ++p2) {
    fill_row_avx512(x + cur.off, cur.mask(t), t, vsrc, r0);
    cur.next();
    fill_row_avx512(x + cur.off, cur.mask(t), t, vsrc, r1);
    cur.next();
    std::int16_t* d = panel + p2 * kNr * 2;
    for (std::int64_t q = 0; q < kNr / 8; ++q) {
      _mm512_mask_storeu_epi16(d + 16 * q, 0xffff,
                               _mm512_permutex2var_epi16(r0[q], pick, r1[q]));
    }
  }
}
#endif  // T2C_I8_AVX2

/// Minimum multiply-adds per parallel chunk of the conv kernels (about
/// 10-20 us of work), so small layers stay on one thread instead of paying
/// a pool dispatch per step.
constexpr std::int64_t kDwGrain = std::int64_t{1} << 16;
constexpr std::int64_t kConvGrain = std::int64_t{1} << 19;

/// The requant constants of a channel block, one lane per channel (the
/// channels are the entry rows), plus the clamp window. Lanes past the
/// block's channels stay zero.
struct DwQuant {
  std::int64_t mul[kDwBlock] = {}, bias[kDwBlock] = {};
  std::int64_t half[kDwBlock] = {}, f[kDwBlock] = {};
  rq::Clip clip;
};

DwQuant dw_quant(const Epilogue& ep, std::int64_t c0, std::int64_t nb) {
  DwQuant q;
  if (ep.mode == Epilogue::Mode::kNone) return q;
  q.clip = {ep.lo, ep.hi, ep.sat != nullptr};
  for (std::int64_t b = 0; b < nb; ++b) {
    const Entry e = entry(ep, row_entry(ep, c0 + b));
    q.mul[b] = e.mul;
    q.bias[b] = e.bias;
    q.half[b] = e.half;
    q.f[b] = e.f;
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
            : rq::requant1(v, k.q.mul[b], k.q.bias[b], k.q.half[b],
                           static_cast<int>(k.q.f[b]), k.ep.bias_frac,
                           k.q.clip, sat);
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

// The same GCC 12 false positive as requant_avx512's.
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
        y0 = rq::requant8_avx512(y0, vmul0, vbias0, vhalf0, vf0, bias_frac,
                                 vlo, vhi, k.q.clip, m0, sat);
        y1 = rq::requant8_avx512(y1, vmul1, vbias1, vhalf1, vf1, bias_frac,
                                 vlo, vhi, k.q.clip, m1, sat);
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

void requant(const std::int32_t* src, std::int64_t lds, std::int64_t* dst,
             std::int64_t ldd, std::int64_t rows, std::int64_t cols,
             std::int64_t row0, std::int64_t col0, const Epilogue& ep,
             std::int64_t& sat) {
  requant_block(src, lds, dst, ldd, rows, cols, row0, col0, ep, sat);
}

void requant(const std::int32_t* src, std::int64_t lds, std::int16_t* dst,
             std::int64_t ldd, std::int64_t rows, std::int64_t cols,
             std::int64_t row0, std::int64_t col0, const Epilogue& ep,
             std::int64_t& sat) {
  requant_block(src, lds, dst, ldd, rows, cols, row0, col0, ep, sat);
}

void requant(const std::int64_t* src, std::int64_t lds, std::int64_t* dst,
             std::int64_t ldd, std::int64_t rows, std::int64_t cols,
             std::int64_t row0, std::int64_t col0, const Epilogue& ep,
             std::int64_t& sat) {
  requant_block(src, lds, dst, ldd, rows, cols, row0, col0, ep, sat);
}

void gemm_b_packed(const std::int64_t* a, const PackedB& pb, std::int64_t* c,
                   std::int64_t m, const Epilogue& ep, bool threaded) {
  gemm_b_packed_impl(a, pb, c, m, ep, threaded);
}

void gemm_b_packed(const std::int64_t* a, const PackedB& pb, std::int16_t* c,
                   std::int64_t m, const Epilogue& ep, bool threaded) {
  gemm_b_packed_impl(a, pb, c, m, ep, threaded);
}

void gemm_b_packed(const std::int16_t* a, const PackedB& pb, std::int64_t* c,
                   std::int64_t m, const Epilogue& ep, bool threaded) {
  gemm_b_packed_impl(a, pb, c, m, ep, threaded);
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
                 std::int64_t* out, const Epilogue& ep, bool threaded) {
  const MicroKernelFn kf = resolve_micro_kernel();
  void (*fill)(const std::int64_t*, const ConvGeom&, const PanelTable&,
               std::int64_t, std::int16_t*) = fill_panel_generic;
#if T2C_I8_AVX2
  const util::IsaTier tier = util::cpu_isa_tier();
  if (tier >= util::IsaTier::kAvx512) {
    fill = fill_panel_avx512;
  } else if (tier >= util::IsaTier::kAvx2) {
    fill = fill_panel_avx2;
  }
#endif
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
  // The caller's int64 scratch holds the tap bounds; tasks take none.
  std::int64_t* lo = worker_scratch<std::int64_t>(2 * g.k);
  std::int64_t* hi = lo + g.k;
  tap_col_bounds(g, lo, hi);
  const auto tasks = [&](std::int64_t t0, std::int64_t t1) {
    std::int16_t* panel = worker_scratch<std::int16_t>(pa.k2 * kNr * 2);
    PanelTable tab;
    tab.vy = worker_scratch<std::uint32_t>(2 * g.k);
    tab.vx = tab.vy + g.k;
    std::int32_t acc[kMr * kNr];
    std::int64_t filled = -1;
    std::int64_t sat = 0;
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t pt = t / slices;
      const std::int64_t grp = pt / npanels;
      const std::int64_t j0 = (pt - grp * npanels) * kNr;
      const std::int64_t jn = std::min(kNr, cols - j0);
      if (pt != filled) {
        build_panel_table(g, grp, j0, jn, lo, hi, tab);
        fill(x, g, tab, pa.k2, panel);
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
          requant(acc + j, kNr,
                  out + (img * g.oc + grp * g.ocg + i0) * g.ohw + pix, g.ohw,
                  mr, len, i0, j, epg, sat);
          j += len;
        }
      }
    }
    rq::add_sats(ep.sat, sat);
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
        rq::add_sats(ep.sat, sat);
      });
}

}  // namespace i8

}  // namespace t2c
