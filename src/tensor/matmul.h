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

/// Integer matmul with int64 accumulation: C[M,N] = A[M,K] * B[K,N].
ITensor imatmul(const ITensor& a, const ITensor& b, bool trans_a = false,
                bool trans_b = false);

/// Integer batched matmul, trailing-dim transposes as in bmm().
ITensor ibmm(const ITensor& a, const ITensor& b, bool trans_a = false,
             bool trans_b = false);

// Raw GEMM entry points for kernels that own their output buffer (conv
// im2col product, integer linear): C[M,N] += op(A) * op(B), with C
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

}  // namespace t2c
