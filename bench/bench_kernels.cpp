// Kernel-level benches for the parallel execution runtime (DESIGN.md
// "Threading model"): tiled/packed GEMM (float + int64), the int8 and int64
// deploy convs, im2col conv2d, the deploy element-wise sweeps (MulQuant,
// LUT softmax), and the integer ViT layers (LayerNorm, GELU, attention) at
// vit_b1's shapes.
//
// Two speedup axes are reported separately:
//   - tiling/packing alone: tiled GEMM at 1 thread vs an in-file naive
//     triple loop (the acceptance floor is 3x on the 512^3 float GEMM);
//   - threading: every kernel at max_threads() vs 1 thread (1.0x on a
//     single-core box — the determinism tests still exercise the pool).
// GFLOP/s counts one multiply + one add per MAC; integer kernels reuse the
// same figure (GOP/s) so rows compare directly.
#include "bench_util.h"

#include "core/parallel.h"
#include "deploy/int_ops.h"
#include "deploy/vit_ops.h"
#include "tensor/conv_ops.h"
#include "tensor/int8_gemm.h"
#include "tensor/matmul.h"
#include "tensor/solver.h"
#include "util/rng.h"

namespace {

using namespace t2c;
using namespace t2c::bench;

/// Naive ikj GEMM — the strongest "untiled" baseline (unit-stride inner
/// loop, no blocking, no packing), so the tiling speedup is not inflated
/// by comparing against a pathological loop order.
void naive_gemm_f32(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t n, std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      for (std::int64_t j = 0; j < n; ++j) c[i * n + j] += av * b[p * n + j];
    }
  }
}

void naive_gemm_i64(const std::int64_t* a, const std::int64_t* b,
                    std::int64_t* c, std::int64_t m, std::int64_t n,
                    std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const std::int64_t av = a[i * k + p];
      for (std::int64_t j = 0; j < n; ++j) c[i * n + j] += av * b[p * n + j];
    }
  }
}

/// Naive int16 x int16 -> int32 GEMM, same ikj order — the unpacked
/// baseline for the narrow-lane rows (operands are 8-bit valued, so the
/// int32 accumulation is exact at k = 512).
void naive_gemm_i16(const std::int16_t* a, const std::int16_t* b,
                    std::int32_t* c, std::int64_t m, std::int64_t n,
                    std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const auto av = static_cast<std::int32_t>(a[i * k + p]);
      for (std::int64_t j = 0; j < n; ++j) {
        c[i * n + j] += av * static_cast<std::int32_t>(b[p * n + j]);
      }
    }
  }
}

double gflops(double macs, double ms) { return 2.0 * macs / (ms * 1e6); }

Tensor rand_tensor(Shape shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  rng.fill_uniform(t.vec(), -1.0F, 1.0F);
  return t;
}

}  // namespace

int main() {
  std::puts("=== Kernel benches: tiled GEMM + parallel deploy sweeps ===");
  const int hw_threads = par::max_threads();
  std::printf("pool size: %d thread(s)\n\n", hw_threads);
  std::vector<BenchStat> stats;
  // Enough reps for the min/stddev statistics the t2c_perf_diff noise
  // window is built on — 3 reps made p50 == p95 and stddev meaningless.
  const int reps = 9 * scale_factor();

  // ---- 512^3 GEMM, float and int64 ----
  const std::int64_t n = 512;
  const double gemm_macs = static_cast<double>(n) * n * n;
  Tensor af = rand_tensor({n, n}, 1), bf = rand_tensor({n, n}, 2);
  Tensor cf({n, n});
  ITensor ai({n, n}), bi({n, n}), ci({n, n});
  for (std::int64_t i = 0; i < ai.numel(); ++i) {
    ai[i] = static_cast<std::int64_t>(af[i] * 127.0F);
    bi[i] = static_cast<std::int64_t>(bf[i] * 127.0F);
  }

  Table t({26, 10, 12, 12});
  t.rule();
  t.row({"kernel", "threads", "mean ms", "GFLOP/s"});
  t.rule();

  const auto gemm_row = [&](const std::string& name, double macs, auto&& fn,
                            int threads, const std::string& kernel = "") {
    par::set_max_threads(threads);
    BenchStat s = time_reps_kernel(name, kernel, fn, reps);
    stats.push_back(s);
    t.row({name, std::to_string(threads), fmt(s.mean_ms),
           fmt(gflops(macs, s.mean_ms))});
    return s.mean_ms;
  };

  // Kernel tags name the code path a row times: the raw GEMM rows name
  // the loop, the int8 rows below the registry solver (the names
  // --plan-dump and --list-solvers print); t2c_perf_diff treats a tag
  // switch as a new measurement rather than a regression.
  const double naive_f_ms =
      gemm_row("gemm_f32_512_naive", gemm_macs,
               [&] { cf.zero(); naive_gemm_f32(af.data(), bf.data(),
                                               cf.data(), n, n, n); }, 1,
               "gemm_f32_naive");
  const double tiled_f_ms =
      gemm_row("gemm_f32_512_tiled", gemm_macs,
               [&] { cf.zero(); gemm_f32(af.data(), bf.data(), cf.data(), n,
                                         n, n, false, false, true); }, 1,
               "gemm_f32_tiled");
  // Distinct row name for the full-pool run: JSON row names are unique
  // keys for the regression comparator.
  const double tiled_f_mt_ms =
      gemm_row("gemm_f32_512_tiled_mt", gemm_macs,
               [&] { cf.zero(); gemm_f32(af.data(), bf.data(), cf.data(), n,
                                         n, n, false, false, true); },
               hw_threads, "gemm_f32_tiled");
  const double naive_i_ms =
      gemm_row("gemm_i64_512_naive", gemm_macs,
               [&] { ci.zero(); naive_gemm_i64(ai.data(), bi.data(),
                                               ci.data(), n, n, n); }, 1,
               "gemm_i64_naive");
  const double tiled_i_ms =
      gemm_row("gemm_i64_512_tiled", gemm_macs,
               [&] { ci.zero(); gemm_i64(ai.data(), bi.data(), ci.data(), n,
                                         n, n, false, false, true); }, 1,
               "gemm_i64_tiled");

  // ---- int8-native packed GEMM (tensor/int8_gemm.h) ----
  // Weights are prepacked outside the timed region, exactly as the
  // execution plan prepacks them at compile time; the fused row adds the
  // requant epilogue a paired MulQuant would contribute.
  std::vector<std::int16_t> a16(static_cast<std::size_t>(n * n));
  std::vector<std::int16_t> b16(static_cast<std::size_t>(n * n));
  std::vector<std::int32_t> c32(static_cast<std::size_t>(n * n));
  for (std::int64_t i = 0; i < ai.numel(); ++i) {
    a16[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(ai[i]);
    b16[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(bi[i]);
  }
  const auto pb8 = i8::pack_b(bi.data(), n, n, false);
  // The packed-row tags are the solver the registry would actually pick
  // for this shape, asked rather than hard-coded so they can never drift
  // from the registry's table. The micro-kernel behind them is the one of
  // build_info.isa's rung.
  const auto solver_tag = [&](bool fused) {
    solver::Problem sp;
    sp.op = solver::OpKind::kLinearInt;
    sp.k = n;
    sp.a_max = 127;
    sp.w_max = 127;
    sp.epilogue = fused;
    if (!fused) sp.epilogue_reason = "consumer";
    return solver::Registry::instance().choose(sp).name;
  };
  const std::int64_t mq8_mul[] = {181};
  const std::int64_t mq8_bias[] = {0};
  i8::Epilogue ep8;
  ep8.mode = i8::Epilogue::Mode::kScalar;
  ep8.mul = mq8_mul;
  ep8.bias = mq8_bias;
  ep8.frac0 = 11;
  ep8.lo = -127;
  ep8.hi = 127;
  const double naive_i8_ms =
      gemm_row("gemm_i8_512_naive", gemm_macs,
               [&] {
                 std::fill(c32.begin(), c32.end(), 0);
                 naive_gemm_i16(a16.data(), b16.data(), c32.data(), n, n, n);
               },
               1, "gemm_i16_naive");
  const double packed_i8_ms =
      gemm_row("gemm_i8_512_packed", gemm_macs,
               [&] {
                 i8::gemm_b_packed(ai.data(), *pb8, ci.data(), n,
                                   i8::Epilogue{}, true);
               },
               1, solver_tag(false));
  const double fused_i8_ms =
      gemm_row("gemm_i8_512_fused", gemm_macs,
               [&] {
                 i8::gemm_b_packed(ai.data(), *pb8, ci.data(), n, ep8, true);
               },
               1, solver_tag(true));
  gemm_row("gemm_i8_512_packed_mt", gemm_macs,
           [&] {
             i8::gemm_b_packed(ai.data(), *pb8, ci.data(), n, i8::Epilogue{},
                               true);
           },
           hw_threads, solver_tag(false));

  // ---- int8 deploy convs at MobileNet-V1 w0.5 and ResNet-50 w0.25 shapes ----
  // IntConv2dOp with the solver Registry::choose picks for a fused
  // per-channel requant, weights packed outside the timed region as the
  // plan packs them: depthwise 3x3s (direct kernel) in each regime of
  // mobilenet_b8, from one channel block on a 16x16 map to 32 blocks on
  // 1x1, then the packed-GEMM convs below.
  const auto deploy_conv_row = [&](const std::string& name, ConvSpec cspec,
                                   std::int64_t hw, std::int64_t batch) {
    const std::int64_t icg = cspec.in_channels / cspec.groups;
    const std::int64_t taps = icg * cspec.kernel * cspec.kernel;
    ITensor w({cspec.out_channels, icg, cspec.kernel, cspec.kernel});
    Rng wr(9);
    for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = wr.randint(-7, 7);
    IntConv2dOp op(std::move(w), cspec);
    solver::Problem sp;
    sp.op = solver::OpKind::kConvInt;
    sp.m = cspec.out_channels / cspec.groups;
    sp.k = taps;
    sp.a_max = 127;
    sp.w_max = 7;
    sp.epilogue = true;
    op.set_solver_choice(solver::Registry::instance().choose(sp));
    const auto packed = op.pack_weights();
    const MulQuantOp mq(std::vector<std::int64_t>(cspec.out_channels, 181),
                        std::vector<std::int64_t>(cspec.out_channels, 11), 14,
                        0, 127, MqLayout::kChannelNCHW);
    ITensor x({batch, cspec.in_channels, hw, hw});
    Rng xr(10);
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = xr.randint(-127, 127);
    ITensor y;
    const std::int64_t ohw = cspec.out_hw(hw) * cspec.out_hw(hw);
    gemm_row(name,
             static_cast<double>(batch * cspec.out_channels * ohw * taps),
             [&] { op.run_packed({&x}, packed.get(), &mq, y); }, 1,
             op.kernel());
  };
  {
    struct Dw {
      const char* name;
      std::int64_t c, hw;
      int stride;
    };
    for (const Dw& d : {Dw{"dwconv_i8_3x3_16_16x16_b8", 16, 16, 1},
                        Dw{"dwconv_i8_3x3_32_16x16_s2_b8", 32, 16, 2},
                        Dw{"dwconv_i8_3x3_64_8x8_b8", 64, 8, 1},
                        Dw{"dwconv_i8_3x3_256_2x2_b8", 256, 2, 1},
                        Dw{"dwconv_i8_3x3_512_1x1_b8", 512, 1, 1}}) {
      ConvSpec dw;
      dw.in_channels = dw.out_channels = d.c;
      dw.groups = static_cast<int>(d.c);
      dw.kernel = 3;
      dw.stride = d.stride;
      dw.padding = 1;
      deploy_conv_row(d.name, dw, d.hw, 8);
    }
    // Packed-GEMM convs in each regime of resnet50_sparse24_b8 (w0.25)
    // and mobilenet_b8: 16x16 maps fill a panel from two output rows, 8x8
    // and smaller ones from four or more rows or several images.
    struct Dense {
      const char* name;
      std::int64_t ic, oc, hw;
      int k;
    };
    for (const Dense& d :
         {Dense{"conv_i8_3x3_3to16_16x16_b8", 3, 16, 16, 3},
          Dense{"conv_i8_3x3_16_16x16_b8", 16, 16, 16, 3},
          Dense{"conv_i8_1x1_16to64_16x16_b8", 16, 64, 16, 1},
          Dense{"conv_i8_1x1_16to32_16x16_b8", 16, 32, 16, 1},
          Dense{"conv_i8_3x3_32_8x8_b8", 32, 32, 8, 3},
          Dense{"conv_i8_1x1_128to32_8x8_b8", 128, 32, 8, 1},
          Dense{"conv_i8_3x3_64_4x4_b8", 64, 64, 4, 3},
          Dense{"conv_i8_1x1_256to64_4x4_b8", 256, 64, 4, 1},
          Dense{"conv_i8_1x1_256_2x2_b8", 256, 256, 2, 1},
          Dense{"conv_i8_1x1_512_1x1_b8", 512, 512, 1, 1}}) {
      ConvSpec cs;
      cs.in_channels = d.ic;
      cs.out_channels = d.oc;
      cs.kernel = d.k;
      cs.padding = d.k / 2;
      deploy_conv_row(d.name, cs, d.hw, 8);
    }
  }

  // ---- int64 convs (iconv2d_forward) ----
  // The kernel every conv of a loaded checkpoint and of an opt-0 model
  // runs, in each regime of its batch-folded GEMM and its direct depthwise
  // loop: mobilenet_b8's depthwise convs on 2x2 and 16x16 maps and its
  // pointwise convs on 2x2 and 1x1 maps, resnet50_sparse24_b8's 3x3 at 4x4
  // and 1x1 expand at 16x16, and resnet20_ckpt_b1's 3x3 at batch 1.
  {
    struct Wide {
      const char* name;
      std::int64_t ic, oc, hw, batch;
      int k, groups;
    };
    for (const Wide& d :
         {Wide{"conv_i64_dw3x3_256_2x2_b8", 256, 256, 2, 8, 3, 256},
          Wide{"conv_i64_dw3x3_32_16x16_b8", 32, 32, 16, 8, 3, 32},
          Wide{"conv_i64_1x1_512_1x1_b8", 512, 512, 1, 8, 1, 1},
          Wide{"conv_i64_1x1_256_2x2_b8", 256, 256, 2, 8, 1, 1},
          Wide{"conv_i64_3x3_64_4x4_b8", 64, 64, 4, 8, 3, 1},
          Wide{"conv_i64_1x1_16to64_16x16_b8", 16, 64, 16, 8, 1, 1},
          Wide{"conv_i64_3x3_8_16x16_b1", 8, 8, 16, 1, 3, 1}}) {
      ConvSpec cs;
      cs.in_channels = d.ic;
      cs.out_channels = d.oc;
      cs.kernel = d.k;
      cs.padding = d.k / 2;
      cs.groups = d.groups;
      const std::int64_t icg = d.ic / d.groups;
      ITensor w({d.oc, icg, d.k, d.k});
      Rng wr(9);
      for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = wr.randint(-7, 7);
      const IntConv2dOp op(std::move(w), cs);
      ITensor x({d.batch, d.ic, d.hw, d.hw});
      Rng xr(10);
      for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = xr.randint(-127, 127);
      gemm_row(d.name,
               static_cast<double>(d.batch * d.oc * d.hw * d.hw * icg * d.k *
                                   d.k),
               [&] { (void)op.run({&x}); }, 1, op.kernel());
    }
  }

  // ---- conv2d forward: ResNet-ish mid-stage shape ----
  const ConvSpec cs = [] {
    ConvSpec s;
    s.in_channels = 32;
    s.out_channels = 64;
    s.kernel = 3;
    s.stride = 1;
    s.padding = 1;
    return s;
  }();
  Tensor cx = rand_tensor({8, 32, 32, 32}, 3);
  Tensor cw = rand_tensor({64, 32, 3, 3}, 4);
  const double conv_macs = 8.0 * 64 * 32 * 32 * (32 * 9);
  double conv_1t = 0.0;
  for (const int threads : {1, hw_threads}) {
    par::set_max_threads(threads);
    const std::string suffix = threads == 1 ? "" : "_mt";
    BenchStat s = time_reps("conv2d_8x32x32x32_k3" + suffix,
                            [&] { (void)conv2d_forward(cx, cw, nullptr, cs); },
                            reps);
    stats.push_back(s);
    if (threads == 1) conv_1t = s.mean_ms;
    t.row({s.name, std::to_string(threads), fmt(s.mean_ms),
           fmt(gflops(conv_macs, s.mean_ms))});
    if (threads == hw_threads) break;  // avoid a duplicate row on 1 core
  }

  // ---- deploy element-wise sweeps ----
  const std::int64_t mq_c = 64;
  ITensor mqx({8, mq_c, 56, 56});
  Rng mq_rng(7);
  for (std::int64_t i = 0; i < mqx.numel(); ++i) {
    mqx[i] = static_cast<std::int64_t>(mq_rng.uniform(-60000.0F, 60000.0F));
  }
  const MulQuantOp mq(std::vector<std::int64_t>(mq_c, 181),
                      std::vector<std::int64_t>(mq_c, 11), 16, -127, 127,
                      MqLayout::kChannelNCHW);
  const LutSoftmaxOp sm(build_exp_lut(0.05F, 256, 15), 255);
  ITensor smx({4, 8, 197, 197});
  Rng sm_rng(8);
  for (std::int64_t i = 0; i < smx.numel(); ++i) {
    smx[i] = static_cast<std::int64_t>(sm_rng.uniform(0.0F, 4000.0F));
  }
  // The same elements as 25088 rows of 64 under a last-dim MulQuant (the
  // token-row layout), into a recycled output.
  {
    par::set_max_threads(1);
    const ITensor rows = ITensor::from({8 * 56 * 56, mq_c}, mqx.vec());
    const MulQuantOp mq_rows(std::vector<std::int64_t>(mq_c, 181),
                             std::vector<std::int64_t>(mq_c, 11), 16, -127,
                             127, MqLayout::kLastDim);
    ITensor rows_out;
    BenchStat s = time_reps("mulquant_lastdim_25088x64",
                            [&] { mq_rows.run_into({&rows}, rows_out); },
                            reps);
    stats.push_back(s);
    t.row({s.name, "1", fmt(s.mean_ms), "-"});
  }
  double mq_1t = 0.0, sm_1t = 0.0;
  for (const int threads : {1, hw_threads}) {
    par::set_max_threads(threads);
    const std::string suffix = threads == 1 ? "" : "_mt";
    BenchStat s = time_reps("mulquant_8x64x56x56" + suffix,
                            [&] { (void)mq.run({&mqx}); }, reps);
    stats.push_back(s);
    if (threads == 1) mq_1t = s.mean_ms;
    t.row({s.name, std::to_string(threads), fmt(s.mean_ms), "-"});
    s = time_reps("int_softmax_4x8x197x197" + suffix,
                  [&] { (void)sm.run({&smx}); }, reps);
    stats.push_back(s);
    if (threads == 1) sm_1t = s.mean_ms;
    t.row({s.name, std::to_string(threads), fmt(s.mean_ms), "-"});
    if (threads == hw_threads) break;
  }
  t.rule();

  // ---- integer ViT layers at vit_b1's shapes ----
  // 16 tokens of dim 64, 4 heads, MLP width 128, batch 1: one block's
  // LayerNorm, GELU and attention as the served model runs them (run_into
  // a recycled output, 1 thread). Each rep is 1000 calls, so a row's ms
  // read as µs per call.
  par::set_max_threads(1);
  constexpr int kVitCalls = 1000;
  Rng vit_rng(9);
  const auto vit_fill = [&](ITensor& x, float lo, float hi) {
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<std::int64_t>(vit_rng.uniform(lo, hi));
    }
  };
  const auto vit_vec = [&](std::int64_t n, float lo, float hi) {
    std::vector<std::int64_t> v(static_cast<std::size_t>(n));
    for (auto& e : v) e = static_cast<std::int64_t>(vit_rng.uniform(lo, hi));
    return v;
  };
  const auto vit_row = [&](const std::string& name, const DeployOp& op,
                           const ITensor& x, const std::string& kernel) {
    const std::vector<const ITensor*> ins = {&x};
    ITensor out;
    op.run_into(ins, out);
    BenchStat s = time_reps_kernel(
        name, kernel,
        [&] {
          for (int c = 0; c < kVitCalls; ++c) op.run_into(ins, out);
        },
        reps);
    stats.push_back(s);
    t.row({s.name, "1", fmt(s.mean_ms), "-"});
  };
  ITensor ln_x({1, 16, 64});
  vit_fill(ln_x, -127.0F, 127.0F);
  const IntLayerNormOp ln(vit_vec(64, 1000.0F, 8000.0F),
                          vit_vec(64, -500.0F, 500.0F), 8, -127, 127);
  vit_row("layernorm_instant_16x64", ln, ln_x, "int_layernorm_instant");
  std::int64_t gelu_step = 1;
  const LutGeluOp gelu(build_gelu_lut(0.05F, -127, 127, 0.05F, -127, 127,
                                      256, gelu_step),
                       -127, 127, gelu_step);
  ITensor gelu_x({1, 16, 128});
  vit_fill(gelu_x, -160.0F, 160.0F);
  vit_row("lut_gelu_16x128", gelu, gelu_x, "lut_gelu");
  IntAttentionParams ap;
  ap.heads = 4;
  ap.wqkv = ITensor({192, 64});
  vit_fill(ap.wqkv, -127.0F, 127.0F);
  ap.qkv_mul = vit_vec(192, 40.0F, 80.0F);
  ap.qkv_bias = vit_vec(192, -2000.0F, 2000.0F);
  ap.softmax_lut = build_exp_lut(12.0F / 256.0F, 256, 15);
  ap.logit_mul = 320;
  ap.ctx_mul = 257;
  ap.wproj = ITensor({64, 64});
  vit_fill(ap.wproj, -127.0F, 127.0F);
  ap.proj_mul = vit_vec(64, 40.0F, 80.0F);
  ap.proj_bias = vit_vec(64, -2000.0F, 2000.0F);
  ap.out_min = -32767;
  ap.out_max = 32767;
  IntAttentionOp attn(std::move(ap));
  attn.set_input_bound(127);
  ITensor attn_x({1, 16, 64});
  vit_fill(attn_x, -127.0F, 127.0F);
  vit_row("attn_i16_t16_d64_h4", attn, attn_x, attn.kernel());
  t.rule();

  par::set_max_threads(hw_threads);
  std::printf("\ntiling/packing alone (1 thread): f32 %.2fx, i64 %.2fx\n",
              naive_f_ms / tiled_f_ms, naive_i_ms / tiled_i_ms);
  std::printf("int8 packed vs i64 tiled (1 thread): %.2fx "
              "(vs i16 naive %.2fx; fused epilogue overhead %.0f%%)\n",
              tiled_i_ms / packed_i8_ms, naive_i8_ms / packed_i8_ms,
              100.0 * (fused_i8_ms - packed_i8_ms) / packed_i8_ms);
  std::printf("threads %d vs 1: gemm_f32 %.2fx", hw_threads,
              tiled_f_ms / tiled_f_mt_ms);
  // Re-time the sweeps at the full pool for the scaling summary line.
  const double conv_mt =
      time_reps("conv_mt", [&] { (void)conv2d_forward(cx, cw, nullptr, cs); },
                reps).mean_ms;
  const double mq_mt =
      time_reps("mq_mt", [&] { (void)mq.run({&mqx}); }, reps).mean_ms;
  const double sm_mt =
      time_reps("sm_mt", [&] { (void)sm.run({&smx}); }, reps).mean_ms;
  std::printf(", conv2d %.2fx, mulquant %.2fx, softmax %.2fx\n",
              conv_1t / conv_mt, mq_1t / mq_mt, sm_1t / sm_mt);

  write_bench_json(stats);
  return 0;
}
