#include "tensor/matmul.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/parallel.h"

namespace t2c {

namespace {

// Cache-blocked, register-tiled GEMM with B-panel packing (BLIS-style
// micro-kernel, no MC/KC outer blocking: one packed panel is k*NR elements
// and stays L2-resident for every k this toolkit runs).
//
// op(B) is packed once per call into NR-wide column panels laid out
// k-major, so the micro-kernel streams both operands contiguously and the
// MR x NR accumulator block lives in registers. Work is split over M row
// blocks (parallel when `threaded`); every output element accumulates over
// K in ascending order regardless of the partition, which is what makes
// the integer path bit-identical at any thread count.
template <typename T>
struct Tile;
template <>
struct Tile<float> {
  static constexpr std::int64_t kMr = 4, kNr = 32;
};
template <>
struct Tile<std::int64_t> {
  static constexpr std::int64_t kMr = kI64TileRows, kNr = kI64TileCols;
};

// Per-CPU dispatch for the micro-kernel: GCC clones it for the wider SIMD
// levels and selects via ifunc at load time, so the baseline build stays
// portable while AVX2/AVX-512 machines get full-width FMA lanes. Clone
// choice is a per-machine constant — every thread runs the same clone, so
// the thread-count determinism contract is untouched. Sanitized builds
// skip the clones: their runtimes start before ifunc resolvers may run.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define T2C_MICROKERNEL_SIMD \
  __attribute__((target_clones("default", "arch=haswell", "arch=x86-64-v4")))
#else
#define T2C_MICROKERNEL_SIMD
#endif

/// Packs columns [j0, j0 + jn) of op(B) (all K rows) into a k-major NR-wide
/// panel, zero-padded on the right edge.
template <typename T>
void pack_b_panel(const T* b, T* dst, std::int64_t k, std::int64_t jn,
                  std::int64_t b_rs, std::int64_t b_cs, std::int64_t j0) {
  constexpr std::int64_t NR = Tile<T>::kNr;
  for (std::int64_t p = 0; p < k; ++p) {
    const T* src = b + p * b_rs + j0 * b_cs;
    T* row = dst + p * NR;
    for (std::int64_t j = 0; j < jn; ++j) row[j] = src[j * b_cs];
    for (std::int64_t j = jn; j < NR; ++j) row[j] = T{};
  }
}

/// C[mr, jn] += Apack[k, kMr] * Bpanel[k, kNr] in float. Both packs are
/// k-major (A interleaved kMr-wide, B kNr-wide), so every p-step is kMr
/// broadcast loads plus kNr-wide FMAs over a fixed-size accumulator tile.
T2C_MICROKERNEL_SIMD void micro_kernel_f32(const float* apack,
                                           const float* bpanel, float* c,
                                           std::int64_t ldc, std::int64_t mr,
                                           std::int64_t jn, std::int64_t k) {
  constexpr std::int64_t MR = Tile<float>::kMr;
  constexpr std::int64_t NR = Tile<float>::kNr;
  float acc[MR][NR] = {};
  for (std::int64_t p = 0; p < k; ++p) {
    const float* bp = bpanel + p * NR;
    const float* ap = apack + p * MR;
    for (std::int64_t r = 0; r < MR; ++r) {
      const float a = ap[r];
      for (std::int64_t j = 0; j < NR; ++j) {
        acc[r][j] += a * bp[j];
      }
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    for (std::int64_t j = 0; j < jn; ++j) c[r * ldc + j] += acc[r][j];
  }
}

/// One row of the int64 register tile: eight uint64_t lanes as a GCC
/// vector, which the clones compile to one vpmullq / vpaddq on AVX-512 and
/// to split lanes elsewhere. Unsigned lanes wrap mod 2^64, as the vector
/// unit does, so a sum that leaves int64 is its two's-complement value at
/// every rung, never undefined.
using U64x8 = std::uint64_t __attribute__((vector_size(64)));
static_assert(kI64TileRows == 4 && kI64TileCols * 8 == sizeof(U64x8),
              "one U64x8 per tile row");

/// The int64 register tile: D[r, j] = sum over p < k of op(A)[r, p] *
/// panel[p * NR + j], stored at dst[r * ldd + j] for r < mr and j < jn.
/// op(A)[r, p] is a[r * a_rs + p * a_cs]: the interleaved A pack (a_rs 1,
/// a_cs MR) or a row-major matrix read in place (a_rs its row stride, a_cs
/// 1). Rows at or past `mr` repeat row mr - 1, so a short block reads
/// nothing past its last row. Every p-step is one panel-row load plus MR
/// broadcast multiply-adds, whatever A's layout.
T2C_MICROKERNEL_SIMD void tile_i64(const std::int64_t* a, std::int64_t a_rs,
                                   std::int64_t a_cs, std::int64_t mr,
                                   const std::int64_t* panel, std::int64_t k,
                                   std::int64_t* dst, std::int64_t ldd,
                                   std::int64_t jn) {
  const std::int64_t* a0 = a;
  const std::int64_t* a1 = a + std::min<std::int64_t>(1, mr - 1) * a_rs;
  const std::int64_t* a2 = a + std::min<std::int64_t>(2, mr - 1) * a_rs;
  const std::int64_t* a3 = a + std::min<std::int64_t>(3, mr - 1) * a_rs;
  U64x8 c0 = {}, c1 = {}, c2 = {}, c3 = {};
  for (std::int64_t p = 0; p < k; ++p) {
    U64x8 b;
    std::memcpy(&b, panel + p * kI64TileCols, sizeof b);
    const std::int64_t q = p * a_cs;
    c0 += static_cast<std::uint64_t>(a0[q]) * b;
    c1 += static_cast<std::uint64_t>(a1[q]) * b;
    c2 += static_cast<std::uint64_t>(a2[q]) * b;
    c3 += static_cast<std::uint64_t>(a3[q]) * b;
  }
  const auto store = [&](std::int64_t r, const U64x8& c) {
    std::int64_t* d = dst + r * ldd;
    if (jn == kI64TileCols) {
      std::memcpy(d, &c, sizeof c);
    } else {
      for (std::int64_t j = 0; j < jn; ++j) {
        d[j] = static_cast<std::int64_t>(c[j]);
      }
    }
  };
  store(0, c0);
  if (mr > 1) store(1, c1);
  if (mr > 2) store(2, c2);
  if (mr > 3) store(3, c3);
}

/// C[mr, jn] += Apack[k, kMr] * Bpanel[k, kNr], per element type: the
/// float micro-kernel, or the int64 tile plus a wrapping add into C.
void block_tile(const float* apack, const float* bpanel, float* c,
                std::int64_t ldc, std::int64_t mr, std::int64_t jn,
                std::int64_t k) {
  micro_kernel_f32(apack, bpanel, c, ldc, mr, jn, k);
}
void block_tile(const std::int64_t* apack, const std::int64_t* bpanel,
                std::int64_t* c, std::int64_t ldc, std::int64_t mr,
                std::int64_t jn, std::int64_t k) {
  constexpr std::int64_t NR = kI64TileCols;
  std::int64_t tile[kI64TileRows * NR];
  tile_i64(apack, 1, kI64TileRows, mr, bpanel, k, tile, NR, NR);
  for (std::int64_t r = 0; r < mr; ++r) {
    for (std::int64_t j = 0; j < jn; ++j) {
      c[r * ldc + j] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(c[r * ldc + j]) +
          static_cast<std::uint64_t>(tile[r * NR + j]));
    }
  }
}

template <typename T, typename Acc>
void gemm_tiled(const T* a, const T* b, Acc* c, std::int64_t m, std::int64_t n,
                std::int64_t k, bool trans_a, bool trans_b, bool threaded) {
  constexpr std::int64_t MR = Tile<T>::kMr;
  constexpr std::int64_t NR = Tile<T>::kNr;
  const std::int64_t a_rs = trans_a ? 1 : k;  // stride between rows of op(A)
  const std::int64_t a_cs = trans_a ? m : 1;  // stride between cols of op(A)
  const std::int64_t b_rs = trans_b ? 1 : n;
  const std::int64_t b_cs = trans_b ? k : 1;
  const std::int64_t npanels = (n + NR - 1) / NR;
  std::vector<T> packed(static_cast<std::size_t>(npanels * k * NR));
  const auto pack = [&](std::int64_t jp0, std::int64_t jp1) {
    for (std::int64_t jp = jp0; jp < jp1; ++jp) {
      pack_b_panel(b, packed.data() + jp * k * NR, k,
                   std::min(NR, n - jp * NR), b_rs, b_cs, jp * NR);
    }
  };
  const std::int64_t mblocks = (m + MR - 1) / MR;
  const auto row_blocks = [&](std::int64_t ib0, std::int64_t ib1) {
    std::vector<T> apack(static_cast<std::size_t>(MR * k));
    for (std::int64_t ib = ib0; ib < ib1; ++ib) {
      const std::int64_t i0 = ib * MR;
      const std::int64_t mr = std::min(MR, m - i0);
      // Interleaved k-major A pack: apack[p*MR + r], edge rows zero-filled.
      for (std::int64_t p = 0; p < k; ++p) {
        T* ap = apack.data() + p * MR;
        for (std::int64_t r = 0; r < mr; ++r) {
          ap[r] = a[(i0 + r) * a_rs + p * a_cs];
        }
        for (std::int64_t r = mr; r < MR; ++r) ap[r] = T{};
      }
      for (std::int64_t jp = 0; jp < npanels; ++jp) {
        block_tile(apack.data(), packed.data() + jp * k * NR,
                   c + i0 * n + jp * NR, n, mr, std::min(NR, n - jp * NR), k);
      }
    }
  };
  if (threaded) {
    par::parallel_for(0, npanels, 1, pack);
    par::parallel_for(0, mblocks, 1, row_blocks);
  } else {
    pack(0, npanels);
    row_blocks(0, mblocks);
  }
}

template <typename T>
void check_mm(const TensorT<T>& a, const TensorT<T>& b, bool trans_a,
              bool trans_b, std::int64_t& m, std::int64_t& n, std::int64_t& k,
              int offset) {
  const std::int64_t ar = a.size(offset), ac = a.size(offset + 1);
  const std::int64_t br = b.size(offset), bc = b.size(offset + 1);
  m = trans_a ? ac : ar;
  k = trans_a ? ar : ac;
  const std::int64_t kb = trans_b ? bc : br;
  n = trans_b ? br : bc;
  check(k == kb, "matmul: inner dimension mismatch " + shape_str(a.shape()) +
                     " x " + shape_str(b.shape()));
}

template <typename T, typename Acc>
TensorT<Acc> mm_impl(const TensorT<T>& a, const TensorT<T>& b, bool trans_a,
                     bool trans_b) {
  check(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2 operands");
  std::int64_t m = 0, n = 0, k = 0;
  check_mm(a, b, trans_a, trans_b, m, n, k, 0);
  TensorT<Acc> c({m, n});
  gemm_tiled(a.data(), b.data(), c.data(), m, n, k, trans_a, trans_b,
             /*threaded=*/true);
  return c;
}

template <typename T, typename Acc>
TensorT<Acc> bmm_impl(const TensorT<T>& a, const TensorT<T>& b, bool trans_a,
                      bool trans_b) {
  check(a.rank() == 3 && b.rank() == 3, "bmm expects rank-3 operands");
  check(a.size(0) == b.size(0), "bmm: batch dim mismatch");
  std::int64_t m = 0, n = 0, k = 0;
  check_mm(a, b, trans_a, trans_b, m, n, k, 1);
  const std::int64_t batch = a.size(0);
  TensorT<Acc> c({batch, m, n});
  const std::int64_t a_sz = a.size(1) * a.size(2);
  const std::int64_t b_sz = b.size(1) * b.size(2);
  if (batch == 1) {
    gemm_tiled(a.data(), b.data(), c.data(), m, n, k, trans_a, trans_b,
               /*threaded=*/true);
    return c;
  }
  // Parallel over batch entries (attention: one entry per head); per-entry
  // GEMMs run serial to keep one level of parallelism.
  par::parallel_for(0, batch, 1, [&](std::int64_t ib0, std::int64_t ib1) {
    for (std::int64_t ib = ib0; ib < ib1; ++ib) {
      gemm_tiled(a.data() + ib * a_sz, b.data() + ib * b_sz,
                 c.data() + ib * m * n, m, n, k, trans_a, trans_b,
                 /*threaded=*/false);
    }
  });
  return c;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  return mm_impl<float, float>(a, b, trans_a, trans_b);
}

Tensor bmm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  return bmm_impl<float, float>(a, b, trans_a, trans_b);
}

ITensor imatmul(const ITensor& a, const ITensor& b, bool trans_a,
                bool trans_b) {
  return mm_impl<std::int64_t, std::int64_t>(a, b, trans_a, trans_b);
}

ITensor ibmm(const ITensor& a, const ITensor& b, bool trans_a, bool trans_b) {
  return bmm_impl<std::int64_t, std::int64_t>(a, b, trans_a, trans_b);
}

void gemm_f32(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
              bool threaded) {
  gemm_tiled(a, b, c, m, n, k, trans_a, trans_b, threaded);
}

void gemm_i64(const std::int64_t* a, const std::int64_t* b, std::int64_t* c,
              std::int64_t m, std::int64_t n, std::int64_t k, bool trans_a,
              bool trans_b, bool threaded) {
  gemm_tiled(a, b, c, m, n, k, trans_a, trans_b, threaded);
}

void gemm_i64_tile(const std::int64_t* a, std::int64_t lda, std::int64_t rows,
                   const std::int64_t* panel, std::int64_t k,
                   std::int64_t* dst, std::int64_t ldd, std::int64_t cols) {
  tile_i64(a, lda, 1, rows, panel, k, dst, ldd, cols);
}

}  // namespace t2c
