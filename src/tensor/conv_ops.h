// 2-D convolution kernels: the float training conv via im2col, with grouped
// / depthwise support, and the integer-only forward of the deployment path
// (a batch-folded GEMM whose panels fill straight from the input, and a
// direct depthwise loop).
//
// Layouts: activations NCHW, weights [OC, IC/groups, KH, KW].
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace t2c {

/// Static description of a convolution. `groups == in_channels ==
/// out_channels` gives the depthwise convolution used by MobileNet-V1.
struct ConvSpec {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  int kernel = 3;      ///< square kernel (KH == KW)
  int stride = 1;
  int padding = 0;
  int groups = 1;

  std::int64_t out_hw(std::int64_t in_hw) const {
    return (in_hw + 2 * padding - kernel) / stride + 1;
  }
  /// Validates divisibility constraints; throws on violation.
  void validate() const;
};

/// Unfolds one sample's group-slice into a [ICg*K*K, OH*OW] patch matrix.
/// `x` is the full NCHW tensor; `n` selects the sample, `g` the group.
Tensor im2col(const Tensor& x, const ConvSpec& spec, std::int64_t n,
              int g);

/// Folds a patch-matrix gradient back into an NCHW gradient (accumulates
/// into `grad_x` at sample `n`, group `g`). Inverse of im2col for backprop.
void col2im_accum(const Tensor& cols, const ConvSpec& spec, std::int64_t n,
                  int g, Tensor& grad_x);

/// Forward convolution: x [N,IC,H,W] * w [OC,ICg,K,K] (+ optional bias [OC])
/// -> [N,OC,OH,OW].
Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor* bias,
                      const ConvSpec& spec);

/// Gradient w.r.t. the input given upstream grad [N,OC,OH,OW].
Tensor conv2d_backward_input(const Tensor& grad_out, const Tensor& w,
                             const ConvSpec& spec, const Shape& x_shape);

/// Gradient w.r.t. the weights (and bias if grad_bias != nullptr).
Tensor conv2d_backward_weight(const Tensor& grad_out, const Tensor& x,
                              const ConvSpec& spec, Tensor* grad_bias);

/// Integer-only forward: int operands, int64 accumulation that wraps mod
/// 2^64. This is the MAC-array semantics the deploy graph and the RTL
/// testbench share, and the oracle the int8 conv kernels are checked
/// against. One batch-folded GEMM per group (its columns run over every
/// pixel of the batch, its panels filled straight from x); a conv with one
/// input and one output channel per group runs a direct depthwise loop.
/// [w_lo, w_hi] must hold every weight (an op's cached WeightFacts, or a
/// scan): with it and one pass over x the call decides whether its
/// multiplies run on narrow lanes (every operand in [-2^31, 2^31), on the
/// AVX-512 rung), which give the same bits as the wide ones.
ITensor iconv2d_forward(const ITensor& x, const ITensor& w, std::int64_t w_lo,
                        std::int64_t w_hi, const ConvSpec& spec);

}  // namespace t2c
