#include "tensor/conv_ops.h"

#include <algorithm>
#include <vector>

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

/// The operand checks of both forward convs.
template <typename T>
void check_conv_operands(const TensorT<T>& x, const TensorT<T>& w,
                         const ConvSpec& spec) {
  spec.validate();
  check(x.rank() == 4, "conv2d: input must be NCHW");
  check(x.size(1) == spec.in_channels, "conv2d: input channel mismatch");
  check(w.rank() == 4 && w.size(0) == spec.out_channels &&
            w.size(1) == spec.in_channels / spec.groups &&
            w.size(2) == spec.kernel && w.size(3) == spec.kernel,
        "conv2d: weight shape mismatch " + shape_str(w.shape()));
}

// ---- the integer conv: the int64 oracle of the deploy path ----
//
// Every sum wraps mod 2^64, so an output is the same two's-complement
// value whatever the order of its terms, and results are bit-identical at
// any thread count and any task split.

constexpr std::int64_t kMr = kI64TileRows, kNr = kI64TileCols;

/// Minimum multiply-adds per parallel chunk (tens of microseconds at int64
/// speed), so a small layer stays on one thread instead of paying a pool
/// dispatch.
constexpr std::int64_t kConvGrain = std::int64_t{1} << 18;
constexpr std::int64_t kDwGrain = std::int64_t{1} << 16;

/// Worker-local int64 scratch of at least `n` lanes, grown on demand and
/// kept for the thread's lifetime, so a warm conv takes nothing from the
/// heap. Each parallel body takes its pointer once.
std::int64_t* i64_scratch(std::int64_t n) {
  thread_local std::vector<std::int64_t> buf;
  if (buf.size() < static_cast<std::size_t>(n)) {
    buf.resize(static_cast<std::size_t>(n));
  }
  return buf.data();
}

/// Output positions [lo[t], hi[t]) whose input index o * stride + t - pad
/// lies in [0, extent), per kernel tap t: the padding test, made once per
/// tap instead of once per output.
void tap_bounds(const ConvSpec& s, std::int64_t extent, std::int64_t out,
                std::int64_t* lo, std::int64_t* hi) {
  for (std::int64_t t = 0; t < s.kernel; ++t) {
    const std::int64_t off = t - s.padding;
    lo[t] = std::min(off < 0 ? (-off + s.stride - 1) / s.stride : 0, out);
    const std::int64_t u =
        extent - 1 - off < 0 ? 0 : (extent - 1 - off) / s.stride + 1;
    hi[t] = std::min(std::max(u, lo[t]), out);
  }
}

/// Fills the k-major kNr-wide panel of batch columns [j0, j0 + jn) of group
/// `grp` straight from the NCHW input. Depth row p = (c * K + ki) * K + kj
/// (the weight's own order) holds, for the column at pixel (img, oy, ox),
/// x[img, grp * ICg + c, oy * stride + ki - pad, ox * stride + kj - pad],
/// or 0 in the padding. Columns go one output-row run at a time, so each
/// tap's bounds are clamped once per run (into `span`, 2K lanes); columns
/// at or past jn are zero.
void fill_panel(const std::int64_t* x, const ConvSpec& s, const Geometry& g,
                std::int64_t grp, std::int64_t j0, std::int64_t jn,
                const std::int64_t* xlo, const std::int64_t* xhi,
                std::int64_t* span, std::int64_t* panel) {
  // Locals throughout: the panel stores could alias any int64 field.
  const std::int64_t k = s.kernel, st = s.stride, pad = s.padding;
  const std::int64_t h = g.h, w = g.w, ow = g.ow, oh = g.oh;
  const std::int64_t icg = g.icg, hw = h * w, ohw = oh * ow;
  std::int64_t* a = span;
  std::int64_t* b = span + k;
  std::int64_t img = j0 / ohw;
  std::int64_t oy = (j0 - img * ohw) / ow;
  std::int64_t ox = j0 - img * ohw - oy * ow;
  for (std::int64_t j = 0; j < jn;) {
    const std::int64_t len = std::min(jn - j, ow - ox);
    // Run columns [a[kj], b[kj]) read the map under kernel column kj.
    for (std::int64_t kj = 0; kj < k; ++kj) {
      a[kj] = std::clamp<std::int64_t>(xlo[kj] - ox, 0, len);
      b[kj] = std::clamp<std::int64_t>(xhi[kj] - ox, a[kj], len);
    }
    const std::int64_t* plane = x + (img * s.in_channels + grp * icg) * hw;
    std::int64_t* row = panel + j;
    for (std::int64_t c = 0; c < icg; ++c, plane += hw) {
      for (std::int64_t ki = 0; ki < k; ++ki) {
        const std::int64_t iy = oy * st + ki - pad;
        for (std::int64_t kj = 0; kj < k; ++kj, row += kNr) {
          if (iy < 0 || iy >= h) {
            std::fill(row, row + len, 0);
            continue;
          }
          // Column q reads plane[off + q * st], inside for q in [qa, qb).
          const std::int64_t qa = a[kj], qb = b[kj];
          const std::int64_t off = iy * w + ox * st + kj - pad;
          if (st == 1 && qa == 0 && qb == kNr) {
            // A whole panel row inside the map: one contiguous copy.
            std::copy(plane + off, plane + off + kNr, row);
            continue;
          }
          for (std::int64_t q = 0; q < len; ++q) {
            row[q] = q >= qa && q < qb ? plane[off + q * st] : 0;
          }
        }
      }
    }
    j += len;
    ox += len;
    if (ox == ow) {
      ox = 0;
      if (++oy == oh) {
        oy = 0;
        ++img;
      }
    }
  }
  if (jn < kNr) {
    const std::int64_t depth = icg * k * k;
    for (std::int64_t p = 0; p < depth; ++p) {
      std::fill(panel + p * kNr + jn, panel + (p + 1) * kNr, 0);
    }
  }
}

/// The batch-folded conv: per group, the GEMM W_g [OCg, K] x P [K, N*OH*OW]
/// whose columns are every pixel of the batch. A task fills one kNr-wide
/// panel of P (fill_panel) into worker scratch and runs the int64 register
/// tile (gemm_i64_tile) over a slice of the group's row blocks, the weights
/// read in place. A panel inside one image stores each tile straight into
/// the output; one that spans images (a map of fewer than kNr pixels, or
/// the seam between two) scatters it through a column-offset table. Too few
/// panels would idle pool workers (a 1x1 map folds a whole batch into one
/// panel), so then the row blocks split into slices, as in the int8 packed
/// conv; a worker fills a panel once for its consecutive slices, and a lone
/// thread never splits.
void conv_i64(const std::int64_t* x, const std::int64_t* w, const ConvSpec& s,
              const Geometry& g, std::int64_t n, std::int64_t* out) {
  const std::int64_t k = s.kernel;
  const std::int64_t depth = g.icg * k * k;
  const std::int64_t ohw = g.oh * g.ow;
  const std::int64_t cols = n * ohw;
  const std::int64_t npanels = (cols + kNr - 1) / kNr;
  const std::int64_t mblocks = (g.ocg + kMr - 1) / kMr;
  const std::int64_t panel_tasks = s.groups * npanels;
  const std::int64_t slices = std::clamp<std::int64_t>(
      par::max_threads() / panel_tasks, 1, mblocks);
  const std::int64_t slice_blocks = (mblocks + slices - 1) / slices;
  const std::int64_t grain = std::max<std::int64_t>(
      1, kConvGrain / (slice_blocks * kMr * depth * kNr));
  const auto tasks = [&](std::int64_t t0, std::int64_t t1) {
    std::int64_t* panel = i64_scratch(depth * kNr + 4 * k);
    std::int64_t* xlo = panel + depth * kNr;
    std::int64_t* xhi = xlo + k;
    tap_bounds(s, g.w, g.ow, xlo, xhi);
    // col[j]: the output offset of panel column j at channel 0.
    std::int64_t col[kNr];
    std::int64_t jn = 0;
    bool one_image = true;
    std::int64_t tile[kMr * kNr];
    std::int64_t filled = -1;
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t pt = t / slices;
      const std::int64_t grp = pt / npanels;
      const std::int64_t j0 = (pt - grp * npanels) * kNr;
      if (pt != filled) {
        jn = std::min(kNr, cols - j0);
        fill_panel(x, s, g, grp, j0, jn, xlo, xhi, xhi + k, panel);
        for (std::int64_t j = 0; j < jn; ++j) {
          const std::int64_t img = (j0 + j) / ohw;
          col[j] = img * s.out_channels * ohw + (j0 + j - img * ohw);
        }
        one_image = col[jn - 1] - col[0] == jn - 1;
        filled = pt;
      }
      const std::int64_t ib0 = (t - pt * slices) * slice_blocks;
      const std::int64_t ib1 = std::min(ib0 + slice_blocks, mblocks);
      for (std::int64_t ib = ib0; ib < ib1; ++ib) {
        const std::int64_t oc0 = grp * g.ocg + ib * kMr;
        const std::int64_t mr = std::min(kMr, g.ocg - ib * kMr);
        if (one_image) {
          gemm_i64_tile(w + oc0 * depth, depth, mr, panel, depth,
                        out + col[0] + oc0 * ohw, ohw, jn);
          continue;
        }
        gemm_i64_tile(w + oc0 * depth, depth, mr, panel, depth, tile, kNr,
                      kNr);
        for (std::int64_t r = 0; r < mr; ++r) {
          std::int64_t* o = out + (oc0 + r) * ohw;
          for (std::int64_t j = 0; j < jn; ++j) o[col[j]] = tile[r * kNr + j];
        }
      }
    }
  };
  par::parallel_for(0, panel_tasks * slices, grain, tasks);
}

/// Planes [p0, p1) of the direct depthwise conv (one input and one output
/// channel per group): each (image, channel) plane adds every kernel tap's
/// products into the output plane (zero on entry), over the rows and
/// columns where that tap lies inside the map. Plane p is channel p % C of
/// image p / C on both sides.
void depthwise_planes(const std::int64_t* x, const std::int64_t* w,
                      const ConvSpec& s, const Geometry& g, std::int64_t p0,
                      std::int64_t p1, std::uint64_t* out) {
  // Locals throughout: the output stores could alias any int64 field.
  const std::int64_t k = s.kernel, st = s.stride, pad = s.padding;
  const std::int64_t c = s.out_channels, iw = g.w, ow = g.ow;
  const std::int64_t hw = g.h * g.w, ohw = g.oh * g.ow;
  std::int64_t* xlo = i64_scratch(4 * k);
  std::int64_t* xhi = xlo + k;
  std::int64_t* ylo = xhi + k;
  std::int64_t* yhi = ylo + k;
  tap_bounds(s, g.w, g.ow, xlo, xhi);
  tap_bounds(s, g.h, g.oh, ylo, yhi);
  for (std::int64_t p = p0; p < p1; ++p) {
    const std::int64_t* plane = x + p * hw;
    const std::int64_t* wc = w + (p % c) * k * k;
    std::uint64_t* o = out + p * ohw;
    for (std::int64_t ki = 0; ki < k; ++ki) {
      const std::int64_t y1 = yhi[ki];
      for (std::int64_t oy = ylo[ki]; oy < y1; ++oy) {
        const std::int64_t* xrow = plane + (oy * st + ki - pad) * iw;
        std::uint64_t* orow = o + oy * ow;
        for (std::int64_t kj = 0; kj < k; ++kj) {
          const auto wv = static_cast<std::uint64_t>(wc[ki * k + kj]);
          const std::int64_t off = kj - pad;
          const std::int64_t x1 = xhi[kj];
          for (std::int64_t ox = xlo[kj]; ox < x1; ++ox) {
            orow[ox] += wv * static_cast<std::uint64_t>(xrow[ox * st + off]);
          }
        }
      }
    }
  }
}

void depthwise_i64(const std::int64_t* x, const std::int64_t* w,
                   const ConvSpec& s, const Geometry& g, std::int64_t n,
                   std::uint64_t* out) {
  const std::int64_t taps = s.kernel * s.kernel;
  par::parallel_for(
      0, n * s.out_channels,
      std::max<std::int64_t>(1, kDwGrain / (g.oh * g.ow * taps)),
      [&](std::int64_t p0, std::int64_t p1) {
        depthwise_planes(x, w, s, g, p0, p1, out);
      });
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

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor* bias,
                      const ConvSpec& spec) {
  check_conv_operands(x, w, spec);
  if (bias != nullptr) {
    check(bias->numel() == spec.out_channels, "conv2d: bias size mismatch");
  }
  const Geometry g = geom(x.shape(), spec);
  const std::int64_t n = x.size(0);
  const std::int64_t ohw = g.oh * g.ow;
  const std::int64_t kk = g.icg * spec.kernel * spec.kernel;
  Tensor out({n, spec.out_channels, g.oh, g.ow});
  // Parallel over (image, group); the im2col scratch is allocated once per
  // worker and reused across its tasks. Each task owns a disjoint output
  // slice and the GEMM accumulates K in fixed order, so results are
  // bit-identical at any thread count.
  const std::int64_t tasks = n * spec.groups;
  const bool single = tasks == 1;
  par::parallel_for(0, tasks, 1, [&](std::int64_t t0, std::int64_t t1) {
    Tensor cols({kk, ohw});
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t in = t / spec.groups;
      const int grp = static_cast<int>(t % spec.groups);
      im2col_raw(x.data(), spec, g, in, grp, cols.data());
      // W_g [OCg, KK] x cols [KK, OHW] += out slice [OCg, OHW] (zero-init).
      float* oslice =
          out.data() + (in * spec.out_channels + grp * g.ocg) * ohw;
      gemm_f32(w.data() + grp * g.ocg * kk, cols.data(), oslice, g.ocg, ohw,
               kk, false, false, /*threaded=*/single);
      if (bias != nullptr) {
        for (std::int64_t oc = 0; oc < g.ocg; ++oc) {
          const float b = (*bias)[grp * g.ocg + oc];
          float* orow = oslice + oc * ohw;
          for (std::int64_t j = 0; j < ohw; ++j) orow[j] += b;
        }
      }
    }
  });
  return out;
}

ITensor iconv2d_forward(const ITensor& x, const ITensor& w,
                        const ConvSpec& spec) {
  check_conv_operands(x, w, spec);
  const Geometry g = geom(x.shape(), spec);
  ITensor out({x.size(0), spec.out_channels, g.oh, g.ow});
  if (g.icg == 1 && g.ocg == 1) {
    // Sums wrap through uint64_t, the unsigned twin of the output's lanes.
    depthwise_i64(x.data(), w.data(), spec, g, x.size(0),
                  reinterpret_cast<std::uint64_t*>(out.data()));
  } else {
    conv_i64(x.data(), w.data(), spec, g, x.size(0), out.data());
  }
  return out;
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
          gemm_f32(w.data() + grp * g.ocg * kk,
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
