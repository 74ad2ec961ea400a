#include "tensor/conv_ops.h"

#include <algorithm>

#include "core/parallel.h"
#include "tensor/matmul.h"

namespace t2c {

void ConvSpec::validate() const {
  check(in_channels > 0 && out_channels > 0, "ConvSpec: channels must be > 0");
  check(kernel > 0 && stride > 0 && padding >= 0, "ConvSpec: bad geometry");
  check(groups > 0 && in_channels % groups == 0 && out_channels % groups == 0,
        "ConvSpec: groups must divide both channel counts");
}

namespace {

struct Geometry {
  std::int64_t h, w, oh, ow, icg, ocg;
};

Geometry geom(const Shape& x_shape, const ConvSpec& s) {
  Geometry g{};
  g.h = x_shape[2];
  g.w = x_shape[3];
  g.oh = s.out_hw(g.h);
  g.ow = s.out_hw(g.w);
  g.icg = s.in_channels / s.groups;
  g.ocg = s.out_channels / s.groups;
  check(g.oh > 0 && g.ow > 0, "conv2d: output size would be non-positive");
  return g;
}

// Generic im2col on raw data; shared by float and integer paths. The
// padding test is hoisted out of the inner loop: the valid ox interval
// [ox_lo, ox_hi) is computed once per (ki, kj) tap, so the interior is a
// branch-free strided copy the compiler can vectorize.
template <typename TSrc, typename TDst>
void im2col_raw(const TSrc* x, const ConvSpec& s, const Geometry& g,
                std::int64_t n, int grp, TDst* cols) {
  const int k = s.kernel;
  const std::int64_t st = s.stride;
  const std::int64_t hw = g.h * g.w;
  const std::int64_t ohw = g.oh * g.ow;
  for (std::int64_t c = 0; c < g.icg; ++c) {
    const std::int64_t ch = grp * g.icg + c;
    const TSrc* plane = x + (n * s.in_channels + ch) * hw;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj) {
        TDst* crow = cols + ((c * k + ki) * k + kj) * ohw;
        // ix = ox*st + off is in [0, w) iff ox in [ox_lo, ox_hi).
        const std::int64_t off = kj - s.padding;
        std::int64_t ox_lo = off < 0 ? (-off + st - 1) / st : 0;
        std::int64_t ox_hi =
            g.w - 1 - off < 0 ? 0 : (g.w - 1 - off) / st + 1;
        ox_lo = std::min(ox_lo, g.ow);
        ox_hi = std::min(std::max(ox_hi, ox_lo), g.ow);
        for (std::int64_t oy = 0; oy < g.oh; ++oy) {
          const std::int64_t iy = oy * st + ki - s.padding;
          TDst* orow = crow + oy * g.ow;
          if (iy < 0 || iy >= g.h) {
            std::fill(orow, orow + g.ow, TDst{});
            continue;
          }
          const TSrc* irow = plane + iy * g.w + off;
          std::fill(orow, orow + ox_lo, TDst{});
          if (st == 1) {
            for (std::int64_t ox = ox_lo; ox < ox_hi; ++ox) {
              orow[ox] = static_cast<TDst>(irow[ox]);
            }
          } else {
            for (std::int64_t ox = ox_lo; ox < ox_hi; ++ox) {
              orow[ox] = static_cast<TDst>(irow[ox * st]);
            }
          }
          std::fill(orow + ox_hi, orow + g.ow, TDst{});
        }
      }
    }
  }
}

// Typed dispatch onto the shared tiled GEMM entry points
// (tensor/matmul.h).
void gemm_any(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t n, std::int64_t k, bool trans_a, bool trans_b,
              bool threaded) {
  gemm_f32(a, b, c, m, n, k, trans_a, trans_b, threaded);
}
void gemm_any(const std::int64_t* a, const std::int64_t* b, std::int64_t* c,
              std::int64_t m, std::int64_t n, std::int64_t k, bool trans_a,
              bool trans_b, bool threaded) {
  gemm_i64(a, b, c, m, n, k, trans_a, trans_b, threaded);
}

}  // namespace

Tensor im2col(const Tensor& x, const ConvSpec& spec, std::int64_t n, int g) {
  spec.validate();
  check(x.rank() == 4 && x.size(1) == spec.in_channels,
        "im2col: input must be NCHW with matching channels");
  const Geometry gm = geom(x.shape(), spec);
  Tensor cols({gm.icg * spec.kernel * spec.kernel, gm.oh * gm.ow});
  im2col_raw(x.data(), spec, gm, n, g, cols.data());
  return cols;
}

void col2im_accum(const Tensor& cols, const ConvSpec& spec, std::int64_t n,
                  int g, Tensor& grad_x) {
  const Geometry gm = geom(grad_x.shape(), spec);
  const int k = spec.kernel;
  const std::int64_t hw = gm.h * gm.w;
  const std::int64_t ohw = gm.oh * gm.ow;
  check(cols.size(0) == gm.icg * k * k && cols.size(1) == ohw,
        "col2im_accum: cols shape mismatch");
  for (std::int64_t c = 0; c < gm.icg; ++c) {
    const std::int64_t ch = g * gm.icg + c;
    float* plane = grad_x.data() + (n * spec.in_channels + ch) * hw;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj) {
        const float* crow = cols.data() + ((c * k + ki) * k + kj) * ohw;
        for (std::int64_t oy = 0; oy < gm.oh; ++oy) {
          const std::int64_t iy = oy * spec.stride + ki - spec.padding;
          if (iy < 0 || iy >= gm.h) continue;
          for (std::int64_t ox = 0; ox < gm.ow; ++ox) {
            const std::int64_t ix = ox * spec.stride + kj - spec.padding;
            if (ix < 0 || ix >= gm.w) continue;
            plane[iy * gm.w + ix] += crow[oy * gm.ow + ox];
          }
        }
      }
    }
  }
}

template <typename T>
static TensorT<T> conv_forward_impl(const TensorT<T>& x, const TensorT<T>& w,
                                    const TensorT<T>* bias,
                                    const ConvSpec& spec) {
  spec.validate();
  check(x.rank() == 4, "conv2d: input must be NCHW");
  check(x.size(1) == spec.in_channels, "conv2d: input channel mismatch");
  check(w.rank() == 4 && w.size(0) == spec.out_channels &&
            w.size(1) == spec.in_channels / spec.groups &&
            w.size(2) == spec.kernel && w.size(3) == spec.kernel,
        "conv2d: weight shape mismatch " + shape_str(w.shape()));
  if (bias != nullptr) {
    check(bias->numel() == spec.out_channels, "conv2d: bias size mismatch");
  }
  const Geometry g = geom(x.shape(), spec);
  const std::int64_t n = x.size(0);
  const std::int64_t ohw = g.oh * g.ow;
  const std::int64_t kk = g.icg * spec.kernel * spec.kernel;
  TensorT<T> out({n, spec.out_channels, g.oh, g.ow});
  // Parallel over (image, group); the im2col scratch is allocated once per
  // worker and reused across its tasks. Each task owns a disjoint output
  // slice and the GEMM accumulates K in fixed order, so results are
  // bit-identical at any thread count.
  const std::int64_t tasks = n * spec.groups;
  const bool single = tasks == 1;
  par::parallel_for(0, tasks, 1, [&](std::int64_t t0, std::int64_t t1) {
    TensorT<T> cols({kk, ohw});
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t in = t / spec.groups;
      const int grp = static_cast<int>(t % spec.groups);
      im2col_raw(x.data(), spec, g, in, grp, cols.data());
      // W_g [OCg, KK] x cols [KK, OHW] += out slice [OCg, OHW] (zero-init).
      T* oslice =
          out.data() + (in * spec.out_channels + grp * g.ocg) * ohw;
      gemm_any(w.data() + grp * g.ocg * kk, cols.data(), oslice, g.ocg, ohw,
               kk, false, false, /*threaded=*/single);
      if (bias != nullptr) {
        for (std::int64_t oc = 0; oc < g.ocg; ++oc) {
          const T b = (*bias)[grp * g.ocg + oc];
          T* orow = oslice + oc * ohw;
          for (std::int64_t j = 0; j < ohw; ++j) orow[j] += b;
        }
      }
    }
  });
  return out;
}

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor* bias,
                      const ConvSpec& spec) {
  return conv_forward_impl<float>(x, w, bias, spec);
}

ITensor iconv2d_forward(const ITensor& x, const ITensor& w,
                        const ITensor* bias, const ConvSpec& spec) {
  return conv_forward_impl<std::int64_t>(x, w, bias, spec);
}

Tensor conv2d_backward_input(const Tensor& grad_out, const Tensor& w,
                             const ConvSpec& spec, const Shape& x_shape) {
  Tensor grad_x(x_shape, 0.0F);
  const Geometry g = geom(x_shape, spec);
  check(grad_out.size(2) == g.oh && grad_out.size(3) == g.ow,
        "conv2d_backward_input: grad_out spatial mismatch");
  const std::int64_t n = grad_out.size(0);
  const std::int64_t ohw = g.oh * g.ow;
  const std::int64_t kk = g.icg * spec.kernel * spec.kernel;
  // Parallel over (image, group): each task scatters into a disjoint set of
  // grad_x channel planes; the cols scratch is hoisted per worker.
  par::parallel_for(
      0, n * spec.groups, 1, [&](std::int64_t t0, std::int64_t t1) {
        Tensor cols({kk, ohw});
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t in = t / spec.groups;
          const int grp = static_cast<int>(t % spec.groups);
          // cols = W_g^T [KK, OCg] x grad_out_g [OCg, OHW]
          cols.zero();
          gemm_any(w.data() + grp * g.ocg * kk,
                   grad_out.data() + (in * spec.out_channels + grp * g.ocg) *
                                         ohw,
                   cols.data(), kk, ohw, g.ocg, /*trans_a=*/true, false,
                   /*threaded=*/false);
          col2im_accum(cols, spec, in, grp, grad_x);
        }
      });
  return grad_x;
}

Tensor conv2d_backward_weight(const Tensor& grad_out, const Tensor& x,
                              const ConvSpec& spec, Tensor* grad_bias) {
  const Geometry g = geom(x.shape(), spec);
  const std::int64_t n = x.size(0);
  const std::int64_t ohw = g.oh * g.ow;
  const std::int64_t kk = g.icg * spec.kernel * spec.kernel;
  Tensor grad_w({spec.out_channels, g.icg, spec.kernel, spec.kernel}, 0.0F);
  // The (image, group) loop stays serial: grad_w accumulates across images,
  // and a fixed outer order keeps the float reduction deterministic at any
  // thread count (the audit replays this path). Parallelism comes from the
  // tiled GEMM splitting the OCg row blocks.
  Tensor cols({kk, ohw});
  for (std::int64_t in = 0; in < n; ++in) {
    for (int grp = 0; grp < spec.groups; ++grp) {
      im2col_raw(x.data(), spec, g, in, grp, cols.data());
      // grad_W_g [OCg, KK] += grad_out_g [OCg, OHW] x cols^T [OHW, KK]
      gemm_f32(grad_out.data() + (in * spec.out_channels + grp * g.ocg) * ohw,
               cols.data(), grad_w.data() + grp * g.ocg * kk, g.ocg, kk, ohw,
               false, /*trans_b=*/true, /*threaded=*/true);
    }
  }
  if (grad_bias != nullptr) {
    check(grad_bias->numel() == spec.out_channels,
          "conv2d_backward_weight: grad_bias size mismatch");
    par::parallel_for(
        0, spec.out_channels, 4, [&](std::int64_t c0, std::int64_t c1) {
          for (std::int64_t oc = c0; oc < c1; ++oc) {
            float acc = 0.0F;
            for (std::int64_t in = 0; in < n; ++in) {
              const float* grow =
                  grad_out.data() + (in * spec.out_channels + oc) * ohw;
              for (std::int64_t j = 0; j < ohw; ++j) acc += grow[j];
            }
            (*grad_bias)[oc] += acc;
          }
        });
  }
  return grad_w;
}

}  // namespace t2c
