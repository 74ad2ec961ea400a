// Matrix multiplication kernels (float and integer).
//
// The float kernels back the training path (linear layers, attention, and
// the im2col convolution). The integer kernel is the deployment datapath:
// int64 accumulation over integer operands, exactly what a MAC array does.
#pragma once

#include "tensor/tensor.h"

namespace t2c {

/// C[M,N] = op(A) * op(B) with optional transposes.
/// A is [M,K] (or [K,M] if trans_a), B is [K,N] (or [N,K] if trans_b).
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// Batched: A [B,M,K] x B [B,K,N] -> [B,M,N], with optional transposes of
/// the trailing two dims.
Tensor bmm(const Tensor& a, const Tensor& b, bool trans_a = false,
           bool trans_b = false);

/// Integer matmul with int64 accumulation: C[M,N] = A[M,K] * B[K,N]. Every
/// integer sum wraps mod 2^64 (two's complement), so no operand size is
/// undefined behaviour.
ITensor imatmul(const ITensor& a, const ITensor& b, bool trans_a = false,
                bool trans_b = false);

/// Integer batched matmul, trailing-dim transposes as in bmm().
ITensor ibmm(const ITensor& a, const ITensor& b, bool trans_a = false,
             bool trans_b = false);

// Raw GEMM entry points for kernels that own their output buffer (float
// conv im2col product, integer linear): C[M,N] += op(A) * op(B), with C
// pre-initialized by the caller (zeroed or carrying bias). Both run the
// cache-blocked, register-tiled kernel. `threaded` parallelizes over row
// blocks and B packing — pass false from call sites that already run
// inside a parallel region. Accumulation over K is always ascending and
// independent of the partition, so integer results are bit-identical for
// any thread count.
void gemm_f32(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
              bool threaded);
void gemm_i64(const std::int64_t* a, const std::int64_t* b, std::int64_t* c,
              std::int64_t m, std::int64_t n, std::int64_t k, bool trans_a,
              bool trans_b, bool threaded);

/// The int64 register tile behind gemm_i64, for a kernel that fills its own
/// k-major B panels (the integer conv): dst[r * ldd + j] = the sum over
/// p < k of a[r * lda + p] * panel[p * kI64TileCols + j], wrapping like
/// gemm_i64, for r < rows (1..kI64TileRows) and j < cols
/// (1..kI64TileCols). A is read in place; rows past `rows` are not read.
inline constexpr std::int64_t kI64TileRows = 4, kI64TileCols = 8;
void gemm_i64_tile(const std::int64_t* a, std::int64_t lda, std::int64_t rows,
                   const std::int64_t* panel, std::int64_t k,
                   std::int64_t* dst, std::int64_t ldd, std::int64_t cols);

}  // namespace t2c
