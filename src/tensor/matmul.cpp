#include "tensor/matmul.h"

#include <algorithm>
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
  static constexpr std::int64_t kMr = 4, kNr = 8;
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

/// C[mr, jn] += Apack[k, kMr] * Bpanel[k, kNr]. Both packs are k-major
/// (A interleaved kMr-wide, B kNr-wide), so every p-step is kMr broadcast
/// loads plus kNr-wide FMAs over a fixed-size accumulator tile.
template <typename T, typename Acc>
T2C_MICROKERNEL_SIMD void micro_kernel(const T* apack, const T* bpanel,
                                       Acc* c, std::int64_t ldc,
                                       std::int64_t mr, std::int64_t jn,
                                       std::int64_t k) {
  constexpr std::int64_t MR = Tile<T>::kMr;
  constexpr std::int64_t NR = Tile<T>::kNr;
  Acc acc[MR][NR] = {};
  for (std::int64_t p = 0; p < k; ++p) {
    const T* bp = bpanel + p * NR;
    const T* ap = apack + p * MR;
    for (std::int64_t r = 0; r < MR; ++r) {
      const Acc a = static_cast<Acc>(ap[r]);
      for (std::int64_t j = 0; j < NR; ++j) {
        acc[r][j] += a * static_cast<Acc>(bp[j]);
      }
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    for (std::int64_t j = 0; j < jn; ++j) c[r * ldc + j] += acc[r][j];
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
        micro_kernel<T, Acc>(apack.data(), packed.data() + jp * k * NR,
                             c + i0 * n + jp * NR, n, mr,
                             std::min(NR, n - jp * NR), k);
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

}  // namespace t2c
