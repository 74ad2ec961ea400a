// Int8-native packed GEMM with a fused requant epilogue (DESIGN.md §3.11).
//
// The deploy graph stores every lane as int64, but the PTQ grids bound the
// live values far tighter: activations sit in a clamp window and weights
// on a sub-8-bit grid. Whenever value-range analysis proves the operands
// fit int16 and the K-deep accumulation fits int32 (K · max|a| · max|w| <
// 2^31), the GEMM can run on narrow lanes — FBGEMM-style prepacked weight
// panels, an int16×int16→int32 register-tiled micro-kernel, and the
// consuming MulQuant's fixed-point multiplier + shift + clamp applied
// directly on the accumulators. Integer accumulation is exact, so the
// result is bit-identical to the int64 reference path at any thread count.
//
// Packing layout (pair-interleaved, vpmaddwd-ready):
//   Both packs store the K dimension as k2 = ceil(k / 2) *pairs* of
//   int16 lanes: consecutive depth elements (p, p+1) sit adjacent in
//   memory (odd k zero-pads the tail). One AVX2 `vpmaddwd` then computes
//   a0*b0 + a1*b1 for eight columns at once — two MACs per lane per
//   instruction — and the pairwise int32 sum cannot wrap (2 · 32767² <
//   2^31), so the scalar fallback on the same layout is bit-identical.
//   PackedB — op(B) as pair-major kNr-wide column panels, rows laid out
//             [k2][kNr][2] (weights of a linear layer, packed once at
//             plan-compile time). Per-column sums ride along as the
//             zero-point-correction offsets: with an asymmetric
//             activation grid the term zp_a * col_sum[j] must be
//             subtracted from column j's accumulator. This toolkit's
//             deploy grids are symmetric (zp = 0), so the offsets are
//             stored but the correction contributes nothing at runtime.
//   PackedA — op(A) as kMr-interleaved pair-major row blocks laid out
//             [k2][kMr][2], one block run per group (conv weights
//             [OCg, ICg*K*K]); per-row sums are the matching offsets
//             for an asymmetric B operand.
//   PackedDw — the weights of a conv with one output channel per group
//             (depthwise) for the direct kernel: int16, channel-blocked
//             [C / kDwBlock][ICg*K*K][kDwBlock], so each tap of a block
//             reads one contiguous vector of its kDwBlock channels.
// The non-prepacked operand (activations / im2col patches) is narrowed
// to int16 on the fly while packing, exactly as matmul.cpp packs. A conv
// never materializes its patch matrix: im2col fills one B panel at a time,
// and the panel columns run over every image of the batch.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/conv_ops.h"

namespace t2c {

/// Base handle for prepacked operands. Produced once per op by
/// DeployOp::pack_weights() at plan-compile time and cached on the
/// ExecutionPlan, so steady-state runs never repack static weights.
struct PackedWeights {
  PackedWeights() = default;
  PackedWeights(const PackedWeights&) = delete;
  PackedWeights& operator=(const PackedWeights&) = delete;
  virtual ~PackedWeights() = default;

  /// Heap bytes the packed representation holds.
  virtual std::int64_t bytes() const = 0;
};

namespace i8 {

/// Register tile of the int16 micro-kernel: kMr × kNr int32 accumulators
/// (16 zmm registers on AVX-512; AVX2 runs the block as two 4-row halves).
inline constexpr std::int64_t kMr = 8;
inline constexpr std::int64_t kNr = 32;

/// Largest operand magnitude an int16 lane holds.
inline constexpr std::int64_t kOperandMax = 32767;

/// True when a K-deep dot product with |a| <= a_max and |w| <= w_max
/// provably fits the narrow kernel: both operands in int16 and every
/// partial int32 sum below 2^31 (the accumulation never wraps, so the
/// widened result equals the int64 reference bit for bit).
bool accum_fits_i32(std::int64_t k, std::int64_t a_max, std::int64_t w_max);

/// The requant of a consuming MulQuant (DESIGN.md §3.2), applied by
/// i8::requant below at every GEMM tile writeback and by the standalone
/// MulQuant step alike:
///   f    = frac[e] + bias_frac          (frac == nullptr: uniform frac0)
///   half = f > 0 ? 1 << (f - 1) : 0
///   y    = (mul[e] * ((acc << bias_frac) + bias[e]) + half) >> f
///   out  = clamp(y, lo, hi)
/// in wrapping 64-bit arithmetic. Entry selection: kScalar uses e = 0,
/// kPerRow e = base + row, kPerCol e = base + column (conv: base is the
/// group's first channel). kNone skips the requant and writes the raw
/// accumulator — the bit-exact drop-in for the i64 GEMM.
struct Epilogue {
  enum class Mode { kNone, kScalar, kPerRow, kPerCol };
  Mode mode = Mode::kNone;
  const std::int64_t* mul = nullptr;
  const std::int64_t* bias = nullptr;
  const int* frac = nullptr;  ///< per-entry shifts; nullptr = uniform frac0
  int frac0 = 0;
  int bias_frac = 0;
  std::int64_t lo = 0, hi = 0;
  std::int64_t base = 0;  ///< entry offset (conv group channel origin)
  /// Saturation telemetry: with `sat` set, each worker counts its clips
  /// locally (a zero floor is exempt) and adds them once — an
  /// order-independent integer sum, identical at any thread count.
  std::atomic<std::int64_t>* sat = nullptr;
};

/// The epilogue over a rows × cols block: dst[r·ldd + j] = the requant of
/// src[r·lds + j], with entry base + row0 + r (kPerRow) or base + col0 + j
/// (kPerCol). When ep.sat is set the block's clips add to the worker's
/// `sat`, which the caller merges into *ep.sat once. dst may alias src at
/// the same strides. The AVX-512 form runs at that rung of
/// util::cpu_isa_tier(), the scalar form below it; both compute the same
/// bits and counts. The overloads cover int32 accumulators into int64 or
/// int16 lanes and int64 values into int64 lanes.
void requant(const std::int32_t* src, std::int64_t lds, std::int64_t* dst,
             std::int64_t ldd, std::int64_t rows, std::int64_t cols,
             std::int64_t row0, std::int64_t col0, const Epilogue& ep,
             std::int64_t& sat);
void requant(const std::int32_t* src, std::int64_t lds, std::int16_t* dst,
             std::int64_t ldd, std::int64_t rows, std::int64_t cols,
             std::int64_t row0, std::int64_t col0, const Epilogue& ep,
             std::int64_t& sat);
void requant(const std::int64_t* src, std::int64_t lds, std::int64_t* dst,
             std::int64_t ldd, std::int64_t rows, std::int64_t cols,
             std::int64_t row0, std::int64_t col0, const Epilogue& ep,
             std::int64_t& sat);

/// op(B) packed as pair-major kNr-wide column panels (int16 lanes, depth
/// pairs adjacent), plus the per-column zero-point-correction offsets.
struct PackedB final : public PackedWeights {
  std::int64_t k = 0, n = 0, npanels = 0;
  std::int64_t k2 = 0;                    ///< ceil(k / 2) depth pairs
  std::vector<std::int16_t> panels;       ///< npanels * k2 * kNr * 2
  std::vector<std::int32_t> col_offsets;  ///< per column: sum_p B[p][j]
  std::int64_t bytes() const override;
};

/// Packs op(B) [k × n] (row-major int64 source; trans_b reads B^T).
std::shared_ptr<const PackedB> pack_b(const std::int64_t* b, std::int64_t k,
                                      std::int64_t n, bool trans_b);

/// `groups` consecutive A blocks [m × k] packed kMr-interleaved pair-major
/// (conv weights, one block per group), plus per-row offsets.
struct PackedA final : public PackedWeights {
  std::int64_t m = 0, k = 0, groups = 1, mblocks = 0;
  std::int64_t k2 = 0;                    ///< ceil(k / 2) depth pairs
  std::vector<std::int16_t> blocks;       ///< groups * mblocks * k2 * kMr * 2
  std::vector<std::int32_t> row_offsets;  ///< groups * m row sums
  std::int64_t bytes() const override;
};

std::shared_ptr<const PackedA> pack_a(const std::int64_t* a, std::int64_t m,
                                      std::int64_t k, std::int64_t groups);

/// Output channels per task of the direct depthwise kernel: one AVX-512
/// int32 vector (two AVX2 ones). 16 divides every MobileNet channel count.
inline constexpr std::int64_t kDwBlock = 16;

/// Weights of a conv with one output channel per group, narrowed to int16
/// and stored channel-blocked for the direct kernel: channel c = blk *
/// kDwBlock + b at tap t (taps = ICg*K*K) is w[(blk * taps + t) * kDwBlock
/// + b]. Only a last partial block is zero-padded.
struct PackedDw final : public PackedWeights {
  std::int64_t channels = 0, taps = 0, blocks = 0;
  std::vector<std::int16_t> w;  ///< blocks * taps * kDwBlock
  std::int64_t bytes() const override;
};

/// Packs conv weights [channels × taps] (the graph's [OC, ICg, K, K]).
std::shared_ptr<const PackedDw> pack_dw(const std::int64_t* w,
                                        std::int64_t channels,
                                        std::int64_t taps);

// C [m × pb.n] = A [m × pb.k] · packed op(B), epilogue applied at
// writeback. A rows are packed (and narrowed) on the fly per kMr row
// block; work splits over row blocks via par::parallel_for when
// `threaded`, and every accumulation is exact integer arithmetic, so
// results are bit-identical at any thread count. The micro-kernel is
// picked from util::cpu_isa_tier() once per call: vpdpwssd at the
// avx512vnni rung, vpmaddwd at avx512 and avx2, a scalar loop below. All
// of them compute the same integers. Overloads cover the deploy data
// paths: int64 activations in, int64 or int16 out (the int16 sink
// requires a clamping epilogue), and int16 scratch in.
void gemm_b_packed(const std::int64_t* a, const PackedB& pb, std::int64_t* c,
                   std::int64_t m, const Epilogue& ep, bool threaded);
void gemm_b_packed(const std::int64_t* a, const PackedB& pb, std::int16_t* c,
                   std::int64_t m, const Epilogue& ep, bool threaded);
void gemm_b_packed(const std::int16_t* a, const PackedB& pb, std::int64_t* c,
                   std::int64_t m, const Epilogue& ep, bool threaded);

/// Packed int8 conv over a whole batch: out [n, OC, OH, OW] = x [n, IC,
/// h, w] ⊛ W, with W prepacked per group by pack_a and the epilogue's
/// per-row entries indexing the full channel axis. Per group the GEMM
/// runs once with N = n·OH·OW columns: im2col fills each kNr-column run
/// of that axis into a worker-local B panel (a panel may hold pixels of
/// several images) from one offset table per panel — each column's
/// window origin in x plus a validity bitmask per kernel row and per
/// kernel column — every row block of the group's weights sweeps it, and
/// the writeback scatters each tile's column runs back to their images'
/// NCHW slices. With `threaded`, tasks are (group, panel)
/// pairs, split further into row-block slices only when there are fewer
/// of them than pool threads; each output element is one micro-kernel call
/// over the full K, so the result is bit-identical at any thread count.
/// The panel fill and the micro-kernel follow util::cpu_isa_tier(), as in
/// gemm_b_packed.
void conv_packed(const std::int64_t* x, std::int64_t n, std::int64_t h,
                 std::int64_t w, const ConvSpec& spec, const PackedA& pa,
                 std::int64_t* out, const Epilogue& ep, bool threaded);

/// Direct int8 conv for one output channel per group (depthwise). A task
/// is one image x one block of kDwBlock output channels: it copies the
/// block's input channels once into a zero-padded, channel-interleaved
/// int32 scratch (no im2col, no bounds test per tap), accumulates all the
/// block's channels of each output pixel in one int32 vector over the
/// ICg*K*K taps, requantizes them together (kNone, kScalar or kPerRow,
/// whose entries are the channels) and stores them into the NCHW output.
/// The AVX-512, AVX2 or scalar variant is picked from util::cpu_isa_tier()
/// on each call. Requires the same accum_fits_i32 proof as the GEMM path;
/// each output is one fixed-order integer sum, so the result is
/// bit-identical at any thread count and on any variant.
void dwconv(const std::int64_t* x, std::int64_t n, std::int64_t h,
            std::int64_t w, const ConvSpec& spec, const PackedDw& pw,
            std::int64_t* out, const Epilogue& ep);

}  // namespace i8

}  // namespace t2c
