// Integer ViT tests (paper §3.2.2, Fig. 4): converting the transformer,
// LUT softmax/GELU inside the full attention block, LayerNorm statistics
// modes, and eval-vs-deploy parity.
#include <gtest/gtest.h>

#include "alloc_count.h"
#include "core/parallel.h"
#include "core/registry.h"
#include "core/t2c.h"
#include "deploy/vit_ops.h"
#include "models/models.h"
#include "models/vit.h"
#include "tensor/elementwise.h"
#include "test_util.h"
#include "util/cpuinfo.h"

namespace t2c {
namespace {

DatasetSpec tiny_spec() {
  DatasetSpec s;
  s.classes = 4;
  s.height = s.width = 8;
  s.train_size = 96;
  s.test_size = 48;
  s.noise = 0.25F;
  s.class_sep = 1.2F;
  s.seed = 5;
  return s;
}

ModelConfig vit_cfg() {
  ModelConfig m;
  m.num_classes = 4;
  m.width_mult = 1.0F;
  m.vit_dim = 16;
  m.vit_depth = 2;
  m.vit_heads = 2;
  m.vit_patch = 4;
  m.seed = 3;
  return m;
}

void train_vit(Sequential& model, const SyntheticImageDataset& data) {
  TrainerOptions o;
  o.train.epochs = 4;
  o.train.lr = 0.02F;
  o.train.weight_decay = 1e-4F;
  auto tr = make_trainer("qat", model, data, o);
  tr->fit();
  freeze_quantizers(model);
}

TEST(VitInt, ConvertsAndMatchesEvalPath) {
  SyntheticImageDataset data(tiny_spec());
  auto model = make_vit(vit_cfg());
  train_vit(*model, data);

  ConvertConfig cfg;
  cfg.input_shape = {3, 8, 8};
  T2CConverter conv(cfg);
  DeployModel dm = conv.convert(*model);

  Tensor x({8, 3, 8, 8});
  for (int i = 0; i < 8; ++i) x.set0(i, data.test_images().select0(i));
  model->set_mode(ExecMode::kEval);
  Tensor le = model->forward(x);
  Tensor ld = dm.run(x);
  EXPECT_LT(max_abs_diff(le, ld) / (1.0F + max_abs(le)), 0.15F);

  const double eval_acc =
      evaluate_accuracy(*model, data.test_images(), data.test_labels());
  const double int_acc = dm.evaluate(data.test_images(), data.test_labels());
  EXPECT_NEAR(int_acc, eval_acc, 12.0);
}

TEST(VitInt, GraphUsesLutAndIntegerAttention) {
  SyntheticImageDataset data(tiny_spec());
  auto model = make_vit(vit_cfg());
  train_vit(*model, data);
  ConvertConfig cfg;
  cfg.input_shape = {3, 8, 8};
  T2CConverter conv(cfg);
  DeployModel dm = conv.convert(*model);
  std::size_t attn = 0, gelu = 0, ln = 0, tok = 0;
  for (std::size_t i = 0; i < dm.num_ops(); ++i) {
    const std::string k = dm.op(i).kind();
    attn += (k == "IntAttention");
    gelu += (k == "LutGelu");
    ln += (k == "IntLayerNorm");
    tok += (k == "Tokenize");
  }
  EXPECT_EQ(attn, 2u);   // one per block
  EXPECT_EQ(gelu, 2u);
  EXPECT_EQ(ln, 5u);     // 2 per block + final norm
  EXPECT_EQ(tok, 1u);
}

TEST(VitInt, NarrowAttentionAllocatesNothingPerCall) {
  // The int16 streams and per-query rows live in per-thread scratch and
  // the output is recycled, so a warm attn_i16 call into its previous
  // output allocates nothing, at 1 and 4 threads; its bits match run().
  if (!kT2cAllocCounting) {
    GTEST_SKIP() << "operator new/delete not replaced under ASan";
  }
  SyntheticImageDataset data(tiny_spec());
  auto model = make_vit(vit_cfg());
  train_vit(*model, data);
  ConvertConfig cfg;
  cfg.input_shape = {3, 8, 8};
  T2CConverter conv(cfg);
  const DeployModel dm = conv.convert(*model);
  const DeployOp* attn = nullptr;
  for (std::size_t i = 0; i < dm.num_ops() && attn == nullptr; ++i) {
    if (dm.op(i).kind() == "IntAttention") attn = &dm.op(i);
  }
  ASSERT_NE(attn, nullptr);
  ASSERT_EQ(attn->kernel(), "attn_i16");
  const std::int64_t d =
      dynamic_cast<const IntAttentionOp&>(*attn).params().wqkv.size(1);
  ITensor x({3, 5, d});  // odd token count: the probability pad slot
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = (i * 7) % 11 - 5;
  const std::vector<const ITensor*> ins = {&x};
  const int saved = par::max_threads();
  for (const int threads : {1, 4}) {
    par::set_max_threads(threads);
    const ITensor want = attn->run(ins);
    ITensor out;
    attn->run_into(ins, out);  // grows every thread's scratch
    const std::int64_t before = g_t2c_alloc_count.load();
    attn->run_into(ins, out);
    EXPECT_EQ(g_t2c_alloc_count.load() - before, 0) << "@" << threads;
    ASSERT_TRUE(out.same_shape(want));
    for (std::int64_t i = 0; i < want.numel(); ++i) {
      ASSERT_EQ(out[i], want[i]) << "@" << threads << " element " << i;
    }
  }
  par::set_max_threads(saved);
}

/// Attention parameters on int8 grids with a softmax spread over the LUT:
/// the shape of a converted block, at any dim and head count. A nonzero
/// `qk_shift` pushes the q streams up and the k streams down by that
/// many bias units, so that every logit is negative.
IntAttentionParams attn_params(std::int64_t d, std::int64_t heads,
                               std::uint64_t seed,
                               std::int64_t qk_shift = 0) {
  Rng rng(seed);
  const auto fill = [&](std::int64_t n, int lo, int hi) {
    std::vector<std::int64_t> v(static_cast<std::size_t>(n));
    for (auto& e : v) e = rng.randint(lo, hi);
    return v;
  };
  IntAttentionParams p;
  p.heads = heads;
  p.wqkv = ITensor::from({3 * d, d}, fill(3 * d * d, -127, 127));
  p.qkv_mul = fill(3 * d, 20, 90);
  p.qkv_bias = fill(3 * d, -3000, 3000);
  for (std::int64_t j = 0; j < d; ++j) {
    p.qkv_bias[static_cast<std::size_t>(j)] += qk_shift;
    p.qkv_bias[static_cast<std::size_t>(d + j)] -= qk_shift;
  }
  p.softmax_lut = build_exp_lut(12.0F / 256.0F, 256, 15);
  p.logit_mul = 24;
  p.ctx_mul = 257;
  p.wproj = ITensor::from({d, d}, fill(d * d, -127, 127));
  p.proj_mul = fill(d, 20, 90);
  p.proj_bias = fill(d, -3000, 3000);
  p.out_min = -32767;
  p.out_max = 32767;
  return p;
}

TEST(VitInt, NarrowAttentionMatchesInt64AtEveryRung) {
  // attn_i16 against the attn_i64 oracle: head dims 16 (vit_b1), 8 and an
  // odd 3 (a qkv row tail past the last full 8 columns), token counts
  // around the 16-lane key vectors, batch 1 and 3, at every ISA cap; the
  // second d = 64 block has only negative logits, so a padded key lane
  // (logit 0) must never reach a row max.
  const util::IsaTier saved = util::cpu_isa_tier();
  struct Config {
    std::int64_t d, heads, qk_shift;
  };
  for (const Config& sh : {Config{64, 4, 0}, Config{64, 4, 60000000},
                           Config{16, 2, 0}, Config{12, 4, 0}}) {
    const std::int64_t d = sh.d, heads = sh.heads;
    const IntAttentionOp wide(attn_params(d, heads, 40 + d, sh.qk_shift));
    IntAttentionOp narrow(attn_params(d, heads, 40 + d, sh.qk_shift));
    narrow.set_input_bound(127);
    ASSERT_EQ(narrow.kernel(), "attn_i16") << "d=" << d;
    ASSERT_NE(wide.kernel(), "attn_i16");
    for (const std::int64_t t : {1, 16, 17, 64}) {
      for (const std::int64_t n : {1, 3}) {
        ITensor x({n, t, d});
        Rng rng(static_cast<std::uint64_t>(d * 100 + t * 10 + n));
        for (std::int64_t i = 0; i < x.numel(); ++i) {
          x[i] = rng.randint(-127, 127);
        }
        const std::vector<const ITensor*> ins = {&x};
        const ITensor want = wide.run(ins);
        for (const util::IsaTier cap :
             {util::IsaTier::kGeneric, util::IsaTier::kAvx2,
              util::IsaTier::kAvx512, util::IsaTier::kAvx512Vnni}) {
          util::set_isa_tier_cap(cap);
          const ITensor got = narrow.run(ins);
          util::set_isa_tier_cap(saved);
          ASSERT_TRUE(got.same_shape(want));
          for (std::int64_t i = 0; i < want.numel(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << "d=" << d << " t=" << t << " n=" << n << " cap "
                << util::isa_tier_name(cap) << " element " << i;
          }
        }
      }
    }
  }
}

TEST(VitInt, Int64AttentionWrapsOnWideProjections) {
  // Projection weights near +-2^40 push the qkv and output requants past
  // int64; the int64 reference wraps them (a UBSan build stops on a
  // signed overflow), keeps every output in its window, and gives the
  // same bits at 1 and 4 threads.
  const int saved = par::max_threads();
  const std::int64_t d = 16;
  IntAttentionParams p = attn_params(d, 2, 71);
  Rng rng(72);
  for (ITensor* w : {&p.wqkv, &p.wproj}) {
    for (std::int64_t i = 0; i < w->numel(); ++i) {
      (*w)[i] = (std::int64_t{1} << 40) + rng.randint(-1000, 1000);
      if (rng.randint(0, 1) == 0) (*w)[i] = -(*w)[i];
    }
  }
  const IntAttentionOp attn(std::move(p));
  ASSERT_EQ(attn.kernel(), "attn_i64");
  ITensor x({2, 9, d});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.randint(-127, 127);
  const std::vector<const ITensor*> ins = {&x};
  par::set_max_threads(1);
  const ITensor want = attn.run(ins);
  par::set_max_threads(4);
  const ITensor got = attn.run(ins);
  par::set_max_threads(saved);
  ASSERT_TRUE(got.same_shape(want));
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "element " << i;
    ASSERT_GE(want[i], attn.params().out_min) << "element " << i;
    ASSERT_LE(want[i], attn.params().out_max) << "element " << i;
  }
}

TEST(VitInt, AttentionRejectsALutIndexThatLeavesInt64) {
  // logit_mul 2^39 on +-2^20 streams: a logit difference of 2^24 + 1
  // would make the LUT index wrap negative, so construction refuses it,
  // as it refuses streams whose largest logit leaves int64.
  IntAttentionParams p = attn_params(16, 2, 73);
  p.stream_min = -(std::int64_t{1} << 20);
  p.stream_max = std::int64_t{1} << 20;
  p.logit_mul = std::int64_t{1} << 39;
  EXPECT_THROW(IntAttentionOp{p}, Error);
  p.logit_mul = 1;
  p.stream_max = std::int64_t{1} << 30;
  EXPECT_THROW(IntAttentionOp{p}, Error);
  p.stream_max = std::int64_t{1} << 20;
  EXPECT_NO_THROW(IntAttentionOp{p});
}

TEST(VitInt, RunningStatsLayerNormAlsoDeploys) {
  SyntheticImageDataset data(tiny_spec());
  auto model = make_vit(vit_cfg());
  train_vit(*model, data);
  ConvertConfig cfg;
  cfg.input_shape = {3, 8, 8};
  cfg.ln_stats = LayerNormStats::kRunning;
  T2CConverter conv(cfg);
  DeployModel dm = conv.convert(*model);
  // Running statistics are an approximation — accuracy stays in a sane
  // band rather than matching exactly.
  const double int_acc = dm.evaluate(data.test_images(), data.test_labels());
  const double eval_acc =
      evaluate_accuracy(*model, data.test_images(), data.test_labels());
  EXPECT_GT(int_acc, eval_acc - 30.0);
}

TEST(VitInt, SoftmaxLutSizeTradesAccuracy) {
  SyntheticImageDataset data(tiny_spec());
  auto model = make_vit(vit_cfg());
  train_vit(*model, data);
  ConvertConfig fine;
  fine.input_shape = {3, 8, 8};
  fine.softmax_lut_size = 512;
  ConvertConfig coarse = fine;
  coarse.softmax_lut_size = 8;
  coarse.gelu_lut_size = 8;
  T2CConverter cf(fine), cc(coarse);
  DeployModel dmf = cf.convert(*model);
  DeployModel dmc = cc.convert(*model);
  Tensor x({8, 3, 8, 8});
  for (int i = 0; i < 8; ++i) x.set0(i, data.test_images().select0(i));
  model->set_mode(ExecMode::kEval);
  Tensor ref = model->forward(x);
  const float ef = max_abs_diff(ref, dmf.run(x));
  const float ec = max_abs_diff(ref, dmc.run(x));
  // Finer LUTs cannot be meaningfully worse (small-noise tolerance: other
  // fixed-point rounding in the graph is LUT-independent).
  EXPECT_LE(ef, ec + 0.1F * (1.0F + max_abs(ref)));
}

}  // namespace
}  // namespace t2c
