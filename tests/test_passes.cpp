// Deploy-graph pass pipeline + liveness-planned arena executor tests.
//
// Covers the graph view (producers/consumers, add_op diagnostics), the
// rewrite helpers (replace_uses / erase_ops id remapping incl. audit
// metadata), each optimization pass (requant folding with its bit-exactness
// guarantee, CSE, dead-value elimination), the execution plan (slot reuse,
// in-place element-wise steps, memory accounting), and the end-to-end
// guarantees: converted CNN/ViT graphs produce bit-identical integer
// outputs and byte-identical audit artifacts at every opt level and thread
// count, and the arena executor's peak intermediate memory is at most half
// of the retired keep-everything executor's.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <thread>

#include "alloc_count.h"
#include "audit/dualpath_audit.h"
#include "core/parallel.h"
#include "core/registry.h"
#include "core/t2c.h"
#include "data/loader.h"
#include "deploy/exec_plan.h"
#include "deploy/int_ops.h"
#include "deploy/passes.h"
#include "deploy/vit_ops.h"
#include "fusion/mulquant.h"
#include "models/models.h"
#include "obs/capture.h"
#include "obs/metrics.h"
#include "quant/ptq.h"
#include "test_util.h"
#include "util/cpuinfo.h"
#include "xport/checkpoint.h"
#include "xport/writers.h"

namespace t2c {
namespace {

/// Restores the pool size on scope exit so tests can't leak a setting.
struct ThreadGuard {
  int saved = par::max_threads();
  ~ThreadGuard() { par::set_max_threads(saved); }
};

using testing::IsaCapGuard;

constexpr util::IsaTier kIsaCaps[] = {util::IsaTier::kGeneric,
                                      util::IsaTier::kAvx2,
                                      util::IsaTier::kAvx512,
                                      util::IsaTier::kAvx512Vnni};

std::unique_ptr<MulQuantOp> scalar_mq(std::int64_t mul, std::int64_t bias,
                                      int frac, std::int64_t lo,
                                      std::int64_t hi, int bias_frac = 0) {
  return std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{mul}, std::vector<std::int64_t>{bias}, frac,
      lo, hi, MqLayout::kPerTensor, bias_frac);
}

int add(DeployModel& dm, std::unique_ptr<DeployOp> op, std::vector<int> ins,
        std::string label = "") {
  op->inputs = std::move(ins);
  op->label = std::move(label);
  return dm.add_op(std::move(op));
}

void expect_bit_identical(const ITensor& a, const ITensor& b,
                          const std::string& what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << ": element " << i;
  }
}

/// Runs both models over every int8 input value and requires equality.
void expect_sweep_identical(const DeployModel& a, const DeployModel& b,
                            const std::string& what) {
  for (std::int64_t v = -127; v <= 127; ++v) {
    const ITensor x = ITensor::from({1, 1}, {v});
    const ITensor ya = a.run_int(x);
    const ITensor yb = b.run_int(x);
    ASSERT_TRUE(ya.same_shape(yb)) << what << " at x=" << v;
    for (std::int64_t i = 0; i < ya.numel(); ++i) {
      ASSERT_EQ(ya[i], yb[i]) << what << " at x=" << v;
    }
  }
}

// ---- graph view + rewrite helpers ----

TEST(PassesTest, GraphViewTracksProducersAndConsumers) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(1, 0, 0, -7, 7), {0});
  const int v2 = add(dm, scalar_mq(2, 0, 1, -7, 7), {v1});
  const int v3 = add(dm, std::make_unique<IntAddOp>(-15, 15), {v2, v1});
  dm.set_output(v3);

  EXPECT_EQ(dm.num_values(), 4);
  EXPECT_EQ(dm.producer_of(0), -1);
  EXPECT_EQ(dm.producer_of(v1), 0);
  EXPECT_EQ(dm.producer_of(v3), 2);
  ASSERT_EQ(dm.consumers_of(0).size(), 1u);
  EXPECT_EQ(dm.consumers_of(0)[0], 0);
  ASSERT_EQ(dm.consumers_of(v1).size(), 2u);  // op1 and the residual add
  EXPECT_EQ(dm.consumers_of(v1)[0], 1);
  EXPECT_EQ(dm.consumers_of(v1)[1], 2);
  EXPECT_TRUE(dm.consumers_of(v3).empty());
}

TEST(PassesTest, AddOpRejectsForwardReferenceWithDiagnostic) {
  DeployModel dm;
  auto op = scalar_mq(1, 0, 0, -7, 7);
  op->inputs = {3};
  op->label = "probe";
  try {
    dm.add_op(std::move(op));
    FAIL() << "expected add_op to throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("MulQuant"), std::string::npos) << msg;
    EXPECT_NE(msg.find("probe"), std::string::npos) << msg;
    EXPECT_NE(msg.find("v3"), std::string::npos) << msg;
  }
}

TEST(PassesTest, ReplaceUsesRequiresEarlierValue) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(1, 0, 0, -7, 7), {0});
  const int v2 = add(dm, scalar_mq(1, 0, 0, -7, 7), {v1});
  dm.set_output(v2);
  EXPECT_THROW(dm.replace_uses(v1, v2), Error);
}

TEST(PassesTest, EraseOpsRefusesToDropUsedValues) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(1, 0, 0, -7, 7), {0});
  const int v2 = add(dm, scalar_mq(1, 0, 0, -7, 7), {v1});
  dm.set_output(v2);
  EXPECT_THROW(dm.erase_ops({false, true}), Error);   // v1 still consumed
  EXPECT_THROW(dm.erase_ops({true, false}), Error);   // v2 is the output
}

// ---- value-range analysis ----

TEST(PassesTest, ValueRangesFollowClampsAndAccumulatorBounds) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(3, 0, 2, -7, 7), {0});
  ITensor w = ITensor::from({2, 1, 1, 1}, {2, -3});
  ConvSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 2;
  spec.kernel = 1;
  spec.stride = 1;
  spec.padding = 0;
  const int v2 = add(dm, std::make_unique<IntConv2dOp>(std::move(w), spec),
                     {v1});
  dm.set_output(v2);
  const auto ranges = compute_value_ranges(dm);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].lo, dm.input_qmin);
  EXPECT_EQ(ranges[0].hi, dm.input_qmax);
  EXPECT_EQ(ranges[1].lo, -7);
  EXPECT_EQ(ranges[1].hi, 7);
  // |acc| <= max-abs-row-sum(W) * max|x| = 3 * 7.
  EXPECT_EQ(ranges[2].lo, -21);
  EXPECT_EQ(ranges[2].hi, 21);
}

// ---- requant folding ----

/// input -> MulQuant [-7,7] -> requant_to-style x16 upshift -> MulQuant.
/// The requant is make_requant's output for two grids 16x apart: a scalar
/// power-of-two multiplier with zero bias, exactly what the converter's
/// requant_to emits between mismatched activation grids.
DeployModel foldable_graph() {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(3, 0, 2, -7, 7), {0}, "pre");
  const FixedPointFormat fmt{8, 8};
  const int v2 = add(dm, make_requant(16.0, 1.0, fmt, -(1 << 14), 1 << 14),
                     {v1}, "requant");
  const int v3 = add(dm, scalar_mq(100, 37, 8, -127, 127, 6), {v2}, "post");
  dm.set_output(v3);
  return dm;
}

TEST(PassesTest, FoldRemovesUpshiftRequantAndStaysBitIdentical) {
  DeployModel ref = foldable_graph();
  DeployModel opt = foldable_graph();
  ASSERT_EQ(opt.num_ops(), 3u);
  const std::size_t removed = optimize_deploy_graph(opt, /*opt_level=*/2);
  EXPECT_GE(removed, 1u);          // the acceptance op-count assertion
  ASSERT_EQ(opt.num_ops(), 2u);    // requant gone, ids renumbered
  EXPECT_EQ(opt.output_id(), 2);
  EXPECT_EQ(opt.op(1).label, "post");

  // The upshift k was absorbed as frac -= k, bias_frac += k.
  const auto* post = dynamic_cast<const MulQuantOp*>(&opt.op(1));
  ASSERT_NE(post, nullptr);
  const int k = 8 - post->frac_bits()[0];
  EXPECT_GT(k, 0);
  EXPECT_EQ(post->bias_frac(), 6 + k);
  EXPECT_EQ(post->mul()[0], 100);   // multiplier and bias words untouched
  EXPECT_EQ(post->bias()[0], 37);

  expect_sweep_identical(ref, opt, "requant fold");
}

TEST(PassesTest, FoldBypassesIdentityRequantForAnyConsumer) {
  const auto build = [] {
    DeployModel dm;
    const int v1 = add(dm, scalar_mq(3, 0, 2, -7, 7), {0});
    const FixedPointFormat fmt{8, 8};
    const int v2 = add(dm, make_requant(1.0, 1.0, fmt, -127, 127), {v1});
    // The consumer is NOT a MulQuant: only the k == 0 bypass applies.
    const int v3 = add(dm, std::make_unique<IntAddOp>(-15, 15), {v2, v2});
    dm.set_output(v3);
    return dm;
  };
  DeployModel ref = build();
  DeployModel opt = build();
  EXPECT_GE(optimize_deploy_graph(opt, 2), 1u);
  EXPECT_EQ(opt.num_ops(), 2u);
  expect_sweep_identical(ref, opt, "identity requant bypass");
}

TEST(PassesTest, FoldLeavesUnprovableRequantsAlone) {
  // Same graph, but the requant clamps to [-100, 100]: the x16 upshift of a
  // [-7, 7] value reaches +/-112, so the clamp can engage and the range
  // analysis must refuse the fold.
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(3, 0, 2, -7, 7), {0});
  const FixedPointFormat fmt{8, 8};
  const int v2 = add(dm, make_requant(16.0, 1.0, fmt, -100, 100), {v1});
  const int v3 = add(dm, scalar_mq(100, 37, 8, -127, 127, 6), {v2});
  dm.set_output(v3);
  EXPECT_EQ(optimize_deploy_graph(dm, 2), 0u);
  EXPECT_EQ(dm.num_ops(), 3u);
}

TEST(PassesTest, FoldNeverTouchesTheModelOutput) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(3, 0, 2, -7, 7), {0});
  const FixedPointFormat fmt{8, 8};
  const int v2 = add(dm, make_requant(16.0, 1.0, fmt, -(1 << 14), 1 << 14),
                     {v1});
  dm.set_output(v2);  // the requant IS the output: folding would change it
  EXPECT_EQ(optimize_deploy_graph(dm, 2), 0u);
  EXPECT_EQ(dm.num_ops(), 2u);
}

TEST(PassesTest, OptLevelZeroValidatesWithoutRewriting) {
  DeployModel dm = foldable_graph();
  EXPECT_EQ(optimize_deploy_graph(dm, 0), 0u);
  EXPECT_EQ(dm.num_ops(), 3u);
}

// ---- dedup + dead-value elimination ----

TEST(PassesTest, DedupMergesIdenticalOpsIgnoringLabels) {
  const auto build = [] {
    DeployModel dm;
    const int v1 = add(dm, scalar_mq(3, 1, 2, -7, 7), {0}, "left");
    const int v2 = add(dm, scalar_mq(3, 1, 2, -7, 7), {0}, "right");
    const int v3 = add(dm, std::make_unique<IntAddOp>(-15, 15), {v1, v2});
    dm.set_output(v3);
    return dm;
  };
  DeployModel ref = build();
  DeployModel opt = build();
  EXPECT_GE(optimize_deploy_graph(opt, 1), 1u);
  ASSERT_EQ(opt.num_ops(), 2u);
  ASSERT_EQ(opt.op(1).inputs.size(), 2u);
  EXPECT_EQ(opt.op(1).inputs[0], 1);  // both operands now the surviving op
  EXPECT_EQ(opt.op(1).inputs[1], 1);
  expect_sweep_identical(ref, opt, "dedup");
}

TEST(PassesTest, DveDropsDeadChainsAndRemapsAudit) {
  DeployModel dm;
  const int live = add(dm, scalar_mq(3, 0, 2, -7, 7), {0}, "live");
  const int dead1 = add(dm, scalar_mq(5, 0, 2, -9, 9), {0}, "dead1");
  add(dm, scalar_mq(7, 0, 2, -11, 11), {dead1}, "dead2");
  dm.set_output(live);
  OpAuditInfo info;
  info.source = "stage.live";
  info.out_scale = 0.125F;
  info.qmin = -7;
  info.qmax = 7;
  dm.set_audit(live, info);

  EXPECT_EQ(optimize_deploy_graph(dm, 1), 2u);
  ASSERT_EQ(dm.num_ops(), 1u);
  EXPECT_EQ(dm.op(0).label, "live");
  EXPECT_EQ(dm.output_id(), 1);
  EXPECT_EQ(dm.audit_of(0).source, "stage.live");
  EXPECT_FLOAT_EQ(dm.audit_of(0).out_scale, 0.125F);
  EXPECT_EQ(dm.audit_of(0).qmin, -7);
  EXPECT_EQ(dm.audit_of(0).qmax, 7);
}

TEST(PassesTest, CheckpointRoundTripsAtEveryOptLevel) {
  // Each pass combination (0 = none, 1 = cse+dve, 2 = +fold) must survive
  // the text checkpoint with bit-identical outputs and audit metadata.
  DeployModel ref = foldable_graph();
  for (const int opt : {0, 1, 2}) {
    DeployModel dm = foldable_graph();
    OpAuditInfo info;
    info.source = "stage.post";
    info.out_scale = 0.0079F;
    info.qmin = -127;
    info.qmax = 127;
    dm.set_audit(dm.output_id(), info);
    (void)optimize_deploy_graph(dm, opt);
    const std::string p = ::testing::TempDir() + "/t2c_passes_opt" +
                          std::to_string(opt) + ".t2c";
    save_checkpoint(dm, p);
    DeployModel r = load_checkpoint(p);
    ASSERT_EQ(r.num_ops(), dm.num_ops()) << "opt " << opt;
    expect_sweep_identical(ref, r, "checkpoint at opt " + std::to_string(opt));
    const std::size_t last = r.num_ops() - 1;
    EXPECT_EQ(r.audit_of(last).source, "stage.post") << "opt " << opt;
    EXPECT_EQ(r.audit_of(last).out_scale, 0.0079F) << "opt " << opt;
  }
}

TEST(PassesTest, PipelineCountsEachPassUnderMetrics) {
  obs::metrics().reset();
  obs::set_metrics_enabled(true);
  DeployModel dm = foldable_graph();
  // A dead [2, 3] linear: dve frees its 6 weights at 4 bits = 3 bytes.
  add(dm, std::make_unique<IntLinearOp>(
              ITensor::from({2, 3}, {1, -2, 3, 4, 5, 6})),
      {0}, "dead");
  const std::size_t ops_before = dm.num_ops();
  const std::size_t removed = optimize_deploy_graph(dm, 2);
  const auto snap = obs::metrics().snapshot();
  obs::set_metrics_enabled(false);
  obs::metrics().reset();
  const auto counter = [&snap](const std::string& name) -> std::int64_t {
    const auto it = snap.counters.find(name);
    EXPECT_NE(it, snap.counters.end()) << name;
    return it == snap.counters.end() ? -1 : it->second;
  };
  EXPECT_EQ(counter("deploy.pass.validate.changes"), 0);
  EXPECT_GE(counter("deploy.pass.fold_requants.changes"), 1);
  EXPECT_EQ(counter("deploy.pass.dedup.changes"), 0);
  // dve removes the bypassed requant and the dead linear...
  EXPECT_EQ(counter("deploy.pass.dve.changes"), 2);
  EXPECT_EQ(counter("deploy.pass.ops_removed"), 2);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(counter("deploy.pass.bytes_saved"), 3);
  // ...and the annotation pass after it keeps the op count.
  EXPECT_EQ(counter("deploy.pass.select_solvers.changes"), 0);
  EXPECT_EQ(dm.num_ops(), ops_before - 2);
}

TEST(PassesTest, PipelineWithMetricsOffCountsNothingAndCompilesNoPlan) {
  obs::metrics().reset();
  ASSERT_FALSE(obs::metrics_enabled());
  DeployModel dm = foldable_graph();
  EXPECT_GE(optimize_deploy_graph(dm, 2), 1u);
  for (const auto& [name, value] : obs::metrics().snapshot().counters) {
    EXPECT_NE(name.rfind("deploy.pass.", 0), 0u) << name << " = " << value;
  }
  // The plan is compiled by the first run, not by the pipeline.
  EXPECT_EQ(dm.memory_stats().plan_slots, 0u);
  (void)dm.run_int(ITensor::from({1, 2}, {3, -4}));
  EXPECT_GT(dm.memory_stats().plan_slots, 0u);
}

TEST(PassesTest, FoldSeesRangesTightenedByAnEarlierFold) {
  // input (+/-127) -> identity requant clamping to [-1000, 1000] -> 1x1
  // conv (w = 2) -> x16 upshift requant clamping to +/-4096 -> MulQuant.
  // Read through the identity requant's window the conv accumulator spans
  // +/-2000, whose x16 upshift would engage the +/-4096 clamp. Once the
  // identity requant is folded the conv reads the input directly: +/-254,
  // so the upshift peaks at 4064 and folds too, but only if the ranges are
  // recomputed after the first fold.
  const auto build = [] {
    DeployModel dm;
    const FixedPointFormat fmt{8, 8};
    const int v1 = add(dm, make_requant(1.0, 1.0, fmt, -1000, 1000), {0},
                       "identity");
    ConvSpec spec;
    spec.in_channels = 1;
    spec.out_channels = 1;
    spec.kernel = 1;
    const int v2 = add(dm,
                       std::make_unique<IntConv2dOp>(
                           ITensor::from({1, 1, 1, 1}, {2}), spec),
                       {v1}, "conv");
    const int v3 = add(dm, make_requant(16.0, 1.0, fmt, -4096, 4096), {v2},
                       "upshift");
    dm.set_output(add(dm, scalar_mq(100, 37, 8, -127, 127, 6), {v3}, "post"));
    return dm;
  };
  DeployModel ref = build();
  DeployModel opt = build();
  EXPECT_EQ(pass_fold_requants(opt), 2u);
  EXPECT_EQ(pass_dve(opt), 2u);
  ASSERT_EQ(opt.num_ops(), 2u);
  EXPECT_EQ(opt.op(0).label, "conv");
  EXPECT_EQ(opt.op(0).inputs[0], 0);
  EXPECT_EQ(opt.op(1).label, "post");

  DeployModel full = build();
  EXPECT_EQ(optimize_deploy_graph(full, 2), 2u);
  for (std::int64_t v = -127; v <= 127; ++v) {
    const ITensor x = ITensor::from({1, 1, 1, 1}, {v});
    const ITensor y = ref.run_int(x);
    const std::string at = " at x=" + std::to_string(v);
    expect_bit_identical(y, opt.run_int(x), "two folds" + at);
    expect_bit_identical(y, full.run_int(x), "opt 2" + at);
  }
}

/// Reference for WeightFacts: per-row Σ|w| and max |w| in __int128,
/// saturating at every step, with |INT64_MIN| read as INT64_MAX.
struct ReferenceFacts {
  std::int64_t abs_row_sum = 0;
  std::int64_t abs_max = 0;
};

ReferenceFacts reference_scan(const ITensor& w) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto sat = [](__int128 v) {
    return static_cast<std::int64_t>(std::min<__int128>(v, kMax));
  };
  const auto sat_abs = [&](std::int64_t v) {
    return sat(v < 0 ? -static_cast<__int128>(v) : v);
  };
  ReferenceFacts f;
  const std::int64_t rows = w.size(0);
  const std::int64_t per = w.numel() / rows;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t acc = 0;
    for (std::int64_t i = r * per; i < (r + 1) * per; ++i) {
      acc = sat(static_cast<__int128>(acc) + sat_abs(w[i]));
      f.abs_max = std::max(f.abs_max, sat_abs(w[i]));
    }
    f.abs_row_sum = std::max(f.abs_row_sum, acc);
  }
  return f;
}

/// A row holding INT64_MIN, a row whose absolute sum passes INT64_MAX,
/// one whose absolute sum passes 2^64, and an all-zero row.
constexpr std::int64_t kExtremeRows[4][4] = {
    {5, std::numeric_limits<std::int64_t>::min(), -7, 0},
    {std::numeric_limits<std::int64_t>::max() / 2,
     -(std::numeric_limits<std::int64_t>::max() / 2), 3, -2},
    {std::numeric_limits<std::int64_t>::max(),
     -std::numeric_limits<std::int64_t>::max(),
     std::numeric_limits<std::int64_t>::max(), 1},
    {0, 0, 0, 0}};

/// A [rows >= 4, 4] weight: the extreme rows, then random rows.
ITensor extreme_weight(std::int64_t rows, std::uint64_t seed) {
  ITensor w({rows, 4});
  Rng rng(seed);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.randint(-300, 300);
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t i = 0; i < 4; ++i) w[r * 4 + i] = kExtremeRows[r][i];
  }
  return w;
}

void expect_facts(const WeightFacts& got, const ITensor& w,
                  const std::string& what) {
  const ReferenceFacts want = reference_scan(w);
  EXPECT_EQ(got.abs_row_sum, want.abs_row_sum) << what;
  EXPECT_EQ(got.abs_max(), want.abs_max) << what;
  EXPECT_EQ(got.lo, *std::min_element(w.data(), w.data() + w.numel())) << what;
  EXPECT_EQ(got.hi, *std::max_element(w.data(), w.data() + w.numel())) << what;
  EXPECT_EQ(required_word_bits(got.lo, got.hi), required_word_bits(w)) << what;
}

TEST(PassesTest, WeightFactsMatchAReferenceScan) {
  DeployModel dm;
  ITensor cw = extreme_weight(6, 11);
  cw.reshape({6, 1, 2, 2});
  ConvSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 6;
  spec.kernel = 2;
  const int vc = add(dm, std::make_unique<IntConv2dOp>(cw, spec), {0}, "conv");
  const int vl = add(dm, std::make_unique<IntLinearOp>(extreme_weight(5, 12)),
                     {0}, "linear");
  IntAttentionParams ap;
  ap.heads = 2;
  ap.wqkv = extreme_weight(12, 13);  // [3D, D] with D = 4
  ap.wproj = extreme_weight(4, 14);
  ap.qkv_mul.assign(12, 1);
  ap.qkv_bias.assign(12, 0);
  ap.proj_mul.assign(4, 1);
  ap.proj_bias.assign(4, 0);
  ap.softmax_lut = build_exp_lut(0.1F, 16, 8);
  const int va = add(dm, std::make_unique<IntAttentionOp>(ap), {0}, "attn");
  dm.set_output(va);

  const auto& conv = dynamic_cast<const IntConv2dOp&>(dm.op(vc - 1));
  const auto& lin = dynamic_cast<const IntLinearOp&>(dm.op(vl - 1));
  const auto& attn = dynamic_cast<const IntAttentionOp&>(dm.op(va - 1));
  expect_facts(conv.weight_facts(), conv.weight(), "conv");
  expect_facts(lin.weight_facts(), lin.weight(), "linear");
  expect_facts(attn.wqkv_facts(), attn.params().wqkv, "attention wqkv");
  expect_facts(attn.wproj_facts(), attn.params().wproj, "attention wproj");
  EXPECT_EQ(conv.weight_facts().abs_row_sum,
            std::numeric_limits<std::int64_t>::max());
  // Each extreme row alone, so no other row's sum can mask it.
  for (const auto& row : kExtremeRows) {
    const IntLinearOp one(
        ITensor::from({1, 4}, {row[0], row[1], row[2], row[3]}));
    expect_facts(one.weight_facts(), one.weight(),
                 "row {" + std::to_string(row[0]) + ", ...}");
  }

  std::int64_t bits = 0;
  for (const ITensor* w : {&conv.weight(), &lin.weight(), &attn.params().wqkv,
                           &attn.params().wproj}) {
    bits += w->numel() * required_word_bits(*w);
  }
  EXPECT_EQ(dm.summarize().weight_storage_bits, bits);
}

// ---- int8 kernel selection (overflow gating) ----

// With the default +/-127 input range and the full int16 weight magnitude,
// K = 516 is the deepest dot product whose worst-case partial sum
// 516 * 127 * 32767 = 2147287044 still sits below 2^31.
constexpr std::int64_t kJustFitsDepth = 516;

/// Input -> IntLinear([1 x k] all `wval`) -> per-tensor MulQuant.
DeployModel linear_graph(std::int64_t k, std::int64_t wval) {
  DeployModel dm;
  ITensor w({1, k});
  for (std::int64_t i = 0; i < k; ++i) w[i] = wval;
  const int v1 = add(dm, std::make_unique<IntLinearOp>(std::move(w)), {0});
  const int v2 = add(dm, scalar_mq(3, 5, 12, -127, 127), {v1});
  dm.set_output(v2);
  return dm;
}

const IntLinearOp& linear_at(const DeployModel& dm, std::size_t i) {
  const auto* ln = dynamic_cast<const IntLinearOp*>(&dm.op(i));
  EXPECT_NE(ln, nullptr);
  return *ln;
}

TEST(KernelGateTest, JustFittingDepthSelectsInt8AndStaysBitIdentical) {
  DeployModel ref = linear_graph(kJustFitsDepth, i8::kOperandMax);
  DeployModel opt = linear_graph(kJustFitsDepth, i8::kOperandMax);
  EXPECT_GE(pass_select_solvers(opt), 1u);
  const solver::SolverChoice& kp = linear_at(opt, 0).solver_choice();
  EXPECT_TRUE(kp.i8);
  EXPECT_TRUE(kp.fuse);
  // Drive the fused kernel through the worst-case accumulation the gate
  // just proved safe: an all +/-127 input against the all-32767 weight
  // lands the int32 accumulator within 196604 of wrap-around.
  ITensor x({1, kJustFitsDepth});
  for (std::int64_t i = 0; i < kJustFitsDepth; ++i) {
    x[i] = i % 3 == 0 ? -127 : 127;
  }
  expect_bit_identical(ref.run_int(x), opt.run_int(x), "just-fits mixed");
  for (std::int64_t i = 0; i < kJustFitsDepth; ++i) x[i] = 127;
  expect_bit_identical(ref.run_int(x), opt.run_int(x), "just-fits peak");
}

TEST(KernelGateTest, OneExtraDepthStepOverflowsAndKeepsI64) {
  // K = 517 pushes the worst case to 2151448453 >= 2^31: the proof fails
  // and the plan must stay on the exact i64 path with the reason recorded.
  DeployModel dm = linear_graph(kJustFitsDepth + 1, i8::kOperandMax);
  pass_select_solvers(dm);
  const solver::SolverChoice& kp = linear_at(dm, 0).solver_choice();
  EXPECT_FALSE(kp.i8);
  EXPECT_FALSE(kp.fuse);
  EXPECT_EQ(kp.reason, "overflow");
}

TEST(KernelGateTest, UpstreamClampNarrowsTheRangeAndUnlocksInt8) {
  // A depth-1000 full-magnitude dot overflows from the raw +/-127 input
  // (1000 * 127 * 32767 ~ 4.2e9)...
  DeployModel wide = linear_graph(1000, i8::kOperandMax);
  pass_select_solvers(wide);
  EXPECT_FALSE(linear_at(wide, 0).solver_choice().i8);
  EXPECT_EQ(linear_at(wide, 0).solver_choice().reason, "overflow");
  // ...but an upstream clamp to [-3, 3] re-proves it: 1000 * 3 * 32767
  // stays far below 2^31, so the same layer now takes the int8 kernel.
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(1, 0, 0, -3, 3), {0});
  ITensor w({1, 1000});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = i8::kOperandMax;
  const int v2 = add(dm, std::make_unique<IntLinearOp>(std::move(w)), {v1});
  const int v3 = add(dm, scalar_mq(3, 5, 12, -127, 127), {v2});
  dm.set_output(v3);
  EXPECT_GE(pass_select_solvers(dm), 1u);
  const solver::SolverChoice& kp = linear_at(dm, 1).solver_choice();
  EXPECT_TRUE(kp.i8);
  EXPECT_TRUE(kp.fuse);
}

TEST(KernelGateTest, WideOperandsNeverSelectInt8) {
  // A single weight above the int16 ceiling disqualifies the layer no
  // matter how shallow the dot product is...
  DeployModel dm = linear_graph(1, i8::kOperandMax + 1);
  pass_select_solvers(dm);
  EXPECT_FALSE(linear_at(dm, 0).solver_choice().i8);
  EXPECT_EQ(linear_at(dm, 0).solver_choice().reason, "overflow");
  // ...and so does an input range outside int16, even with weight 1.
  DeployModel act = linear_graph(1, 1);
  act.input_qmin = -(i8::kOperandMax + 1);
  act.input_qmax = i8::kOperandMax + 1;
  pass_select_solvers(act);
  EXPECT_FALSE(linear_at(act, 0).solver_choice().i8);
  EXPECT_EQ(linear_at(act, 0).solver_choice().reason, "overflow");
}

/// Input [n, c, h, w] -> depthwise 3x3 (pad 1, all weights `wval`) ->
/// per-tensor MulQuant, with the input range set to +/-`amax`.
DeployModel depthwise_graph(std::int64_t c, std::int64_t wval,
                            std::int64_t amax) {
  ConvSpec s;
  s.in_channels = s.out_channels = c;
  s.groups = static_cast<int>(c);
  s.kernel = 3;
  s.padding = 1;
  ITensor w({c, 1, 3, 3});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = wval;
  DeployModel dm;
  dm.input_qmin = -amax;
  dm.input_qmax = amax;
  const int v1 = add(dm, std::make_unique<IntConv2dOp>(std::move(w), s), {0});
  dm.set_output(add(dm, scalar_mq(3, 5, 12, -127, 127), {v1}));
  return dm;
}

TEST(KernelGateTest, DepthwiseJustFittingDepthSelectsDirectSolver) {
  // K = 9 taps against full-magnitude weights: 9 * 7282 * 32767 =
  // 2147483646 is the largest worst case below 2^31, so +/-7282 inputs
  // just fit and +/-7283 do not.
  constexpr std::int64_t kJustFitsInput = 7282;
  DeployModel ref = depthwise_graph(2, i8::kOperandMax, kJustFitsInput);
  DeployModel opt = depthwise_graph(2, i8::kOperandMax, kJustFitsInput);
  EXPECT_GE(pass_select_solvers(opt), 1u);
  EXPECT_EQ(opt.op(0).kernel(), "dwconv_i8_fused");
  // Interior outputs of the all-peak input sit 2 below int32 wrap-around.
  ITensor x({1, 2, 4, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = kJustFitsInput;
  expect_bit_identical(ref.run_int(x), opt.run_int(x), "dw just-fits peak");
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = i % 3 == 0 ? -kJustFitsInput : kJustFitsInput;
  }
  expect_bit_identical(ref.run_int(x), opt.run_int(x), "dw just-fits mixed");

  DeployModel over = depthwise_graph(2, i8::kOperandMax, kJustFitsInput + 1);
  pass_select_solvers(over);
  EXPECT_EQ(over.op(0).kernel(), "gemm_i64(overflow)");
}

/// One cell of the conv bit-identity matrix. A depthwise cell has
/// `channels` output channels (4 when 0), each reading `icg` inputs.
struct ConvCase {
  enum class Kind { kDepthwise, kDense, kGrouped } kind;
  int kernel, stride, padding;
  std::int64_t h, w, batch;
  enum class Ep { kNone, kPerTensor, kPerChannelRelu } ep;
  std::int64_t channels = 0, icg = 1;
};

std::string describe(const ConvCase& c) {
  return "kind " + std::to_string(static_cast<int>(c.kind)) + " k" +
         std::to_string(c.kernel) + " s" + std::to_string(c.stride) + " p" +
         std::to_string(c.padding) + " " + std::to_string(c.h) + "x" +
         std::to_string(c.w) + " n" + std::to_string(c.batch) + " ep" +
         std::to_string(static_cast<int>(c.ep)) + " c" +
         std::to_string(c.channels) + " icg" + std::to_string(c.icg);
}

/// Input -> IntConv2d ("conv") [-> MulQuant ("mq")]. Depthwise is
/// `channels` (default 4) groups of icg inputs and one output; dense is
/// 3 -> 10 (a full and a partial 8-row block); grouped is 4 -> 6 in two
/// groups. The multipliers push part of the outputs past the clamp, so
/// saturation counts are exercised too.
DeployModel conv_case_graph(const ConvCase& c) {
  ConvSpec s;
  s.kernel = c.kernel;
  s.stride = c.stride;
  s.padding = c.padding;
  switch (c.kind) {
    case ConvCase::Kind::kDepthwise:
      s.out_channels = c.channels > 0 ? c.channels : 4;
      s.in_channels = s.out_channels * c.icg;
      s.groups = static_cast<int>(s.out_channels);
      break;
    case ConvCase::Kind::kDense:
      s.in_channels = 3;
      s.out_channels = 10;
      break;
    case ConvCase::Kind::kGrouped:
      s.in_channels = 4;
      s.out_channels = 6;
      s.groups = 2;
      break;
  }
  ITensor w({s.out_channels, s.in_channels / s.groups, s.kernel, s.kernel});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = (i * 7919 + 13) % 19 - 9;
  DeployModel dm;
  const int v1 = add(dm, std::make_unique<IntConv2dOp>(std::move(w), s), {0},
                     "conv");
  if (c.ep == ConvCase::Ep::kNone) {
    dm.set_output(v1);
    return dm;
  }
  std::unique_ptr<MulQuantOp> mq;
  if (c.ep == ConvCase::Ep::kPerTensor) {
    mq = scalar_mq(45, -3, 8, -127, 127);
  } else {
    std::vector<std::int64_t> mul, bias;
    std::vector<int> frac;
    for (std::int64_t oc = 0; oc < s.out_channels; ++oc) {
      mul.push_back(20 + 9 * oc);
      bias.push_back(oc * 5 - 11);
      frac.push_back(7 + static_cast<int>(oc % 3));
    }
    mq = std::make_unique<MulQuantOp>(std::move(mul), std::move(bias),
                                      std::move(frac), 0, 127,
                                      MqLayout::kChannelNCHW, 1);
  }
  dm.set_output(add(dm, std::move(mq), {v1}, "mq"));
  return dm;
}

/// Output of one run_int plus the clips it added to the MulQuant counter.
std::pair<ITensor, std::int64_t> run_counting_sats(const DeployModel& dm,
                                                   const ITensor& x) {
  obs::Counter& sat = obs::metrics().counter("deploy.sat.MulQuant:mq");
  const std::int64_t before = sat.value();
  ITensor y = dm.run_int(x);
  return {std::move(y), sat.value() - before};
}

/// A conv cell with its input and the opt-0 int64 graph's output and clip
/// count at 1 thread.
struct ConvCell {
  ConvCase c;
  ITensor x, want;
  std::int64_t want_sat = 0;
};

ConvCell conv_cell(const ConvCase& c) {
  ConvCell cell{c, {}, {}, 0};
  const DeployModel ref = conv_case_graph(c);
  cell.x = ITensor(
      {c.batch, dynamic_cast<const IntConv2dOp&>(ref.op(0)).spec().in_channels,
       c.h, c.w});
  for (std::int64_t i = 0; i < cell.x.numel(); ++i) {
    cell.x[i] = (i * 31 + c.kernel * 7 + c.stride) % 255 - 127;
  }
  auto [want, sat] = run_counting_sats(ref, cell.x);
  cell.want = std::move(want);
  cell.want_sat = sat;
  return cell;
}

/// Runs every cell at opt 2 (direct depthwise / batch-folded packed GEMM)
/// under every ISA cap and pool size and compares output bits and clip
/// counts with its opt-0 reference. The pool is resized once per (cap,
/// threads) pair, not per cell; one optimized graph is alive at a time to
/// keep the footprint small under the sanitizers.
void expect_cells_match(const std::vector<ConvCell>& cells) {
  std::int64_t clips = 0;
  for (const ConvCell& cell : cells) clips += cell.want_sat;
  EXPECT_GT(clips, 0);  // the clip-count comparison is not vacuous
  const IsaCapGuard cap_guard;
  for (const util::IsaTier cap : kIsaCaps) {
    util::set_isa_tier_cap(cap);
    for (const int threads : {1, 4, 16}) {
      par::set_max_threads(threads);
      for (const ConvCell& cell : cells) {
        const std::string at = describe(cell.c) + " cap " +
                               util::isa_tier_name(cap) + " @" +
                               std::to_string(threads);
        DeployModel opt = conv_case_graph(cell.c);
        (void)optimize_deploy_graph(opt, 2);
        const std::string family =
            cell.c.kind == ConvCase::Kind::kDepthwise ? "dwconv_i8" : "gemm_i8";
        EXPECT_EQ(opt.op(0).kernel(),
                  cell.c.ep == ConvCase::Ep::kNone ? family : family + "_fused")
            << at;
        const auto [got, got_sat] = run_counting_sats(opt, cell.x);
        expect_bit_identical(cell.want, got, at);
        EXPECT_EQ(got_sat, cell.want_sat) << at;
      }
    }
  }
}

TEST(KernelGateTest, ConvMatrixMatchesI64BitsAndSaturation) {
  // Batch 3 at 3x5 folds 45 columns, so a panel edge falls inside the
  // third image. 16x16 maps fill a panel's 8-column groups by loads, 1x1,
  // 2x2 and 3x5 maps by gathers, and the 6x12 map's 8- to 16-wide output
  // rows mix both within one panel.
  const ThreadGuard guard;
  obs::set_metrics_enabled(true);
  struct Hw {
    std::int64_t h, w;
  };
  std::vector<ConvCell> cells;
  par::set_max_threads(1);
  for (const auto kind :
       {ConvCase::Kind::kDepthwise, ConvCase::Kind::kDense,
        ConvCase::Kind::kGrouped}) {
    for (const int k : {1, 3, 5}) {
      for (const int st : {1, 2}) {
        for (const int pad : {0, 1, 2}) {
          for (const Hw hw :
               {Hw{1, 1}, Hw{2, 2}, Hw{3, 5}, Hw{6, 12}, Hw{16, 16}}) {
            if (hw.h + 2 * pad < k || hw.w + 2 * pad < k) continue;
            for (const std::int64_t batch : {1, 3, 8}) {
              for (const auto ep :
                   {ConvCase::Ep::kNone, ConvCase::Ep::kPerTensor,
                    ConvCase::Ep::kPerChannelRelu}) {
                cells.push_back(
                    conv_cell({kind, k, st, pad, hw.h, hw.w, batch, ep}));
              }
            }
          }
        }
      }
    }
  }
  ASSERT_EQ(cells.size(), 3u * 76 * 3 * 3);
  expect_cells_match(cells);
  obs::set_metrics_enabled(false);
}

TEST(KernelGateTest, DepthwiseChannelBlocksMatchI64BitsAndSaturation) {
  // MobileNet's 3x3 pad-1 depthwise convs at channel counts that fill the
  // direct kernel's channel blocks: exactly one block, two blocks plus a
  // partial one that reaches into the block's upper half, and two input
  // channels per group (one block plus a partial one of 4 channels).
  const ThreadGuard guard;
  obs::set_metrics_enabled(true);
  struct Channels {
    std::int64_t c, icg;
  };
  const Channels channels[] = {{i8::kDwBlock, 1},
                               {2 * i8::kDwBlock + 12, 1},
                               {i8::kDwBlock + 4, 2}};
  std::vector<ConvCell> cells;
  par::set_max_threads(1);
  for (const Channels ch : channels) {
    for (const int st : {1, 2}) {
      for (const std::int64_t hw : {16, 8, 2, 1}) {
        for (const std::int64_t batch : {1, 8}) {
          for (const auto ep :
               {ConvCase::Ep::kNone, ConvCase::Ep::kPerTensor,
                ConvCase::Ep::kPerChannelRelu}) {
            cells.push_back(conv_cell({ConvCase::Kind::kDepthwise, 3, st, 1,
                                       hw, hw, batch, ep, ch.c, ch.icg}));
          }
        }
      }
    }
  }
  expect_cells_match(cells);
  obs::set_metrics_enabled(false);
}

// ---- execution plan + arena ----

TEST(DeployPlanTest, ElementwiseChainRunsInOneSlotInPlace) {
  DeployModel dm;
  int v = add(dm, scalar_mq(3, 0, 1, -100, 100), {0});
  v = add(dm, scalar_mq(5, 1, 2, -100, 100), {v});
  v = add(dm, scalar_mq(7, -1, 3, -100, 100), {v});
  dm.set_output(v);

  const ExecutionPlan& plan = dm.plan();
  EXPECT_EQ(plan.num_slots(), 1u);
  EXPECT_EQ(plan.inplace_steps(), 2u);  // step 0 reads the input: no alias
  ASSERT_EQ(plan.steps().size(), 3u);
  EXPECT_FALSE(plan.steps()[0].inplace);
  EXPECT_TRUE(plan.steps()[1].inplace);
  EXPECT_TRUE(plan.steps()[2].inplace);
  EXPECT_EQ(plan.steps()[0].in_slots[0], -1);  // the network input

  const ITensor x = ITensor::from({2, 3}, {-60, -10, -1, 0, 25, 111});
  const ITensor y = dm.run_int(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    std::int64_t t = std::min<std::int64_t>(
        100, std::max<std::int64_t>(-100, (3 * x[i] + 1) >> 1));
    t = std::min<std::int64_t>(100,
                               std::max<std::int64_t>(-100, (5 * (t + 1) + 2) >> 2));
    t = std::min<std::int64_t>(100,
                               std::max<std::int64_t>(-100, (7 * (t - 1) + 4) >> 3));
    EXPECT_EQ(y[i], t) << i;
  }

  const auto mem = dm.memory_stats();
  const std::int64_t tensor_bytes = x.numel() * 8;
  EXPECT_EQ(mem.naive_bytes, 4 * tensor_bytes);  // input copy + 3 values
  EXPECT_EQ(mem.peak_bytes, tensor_bytes);       // one live slot throughout
  EXPECT_EQ(mem.plan_slots, 1u);
  EXPECT_EQ(mem.runs, 1u);
}

TEST(DeployPlanTest, ResidualForkKeepsTwoSlotsAndFreesOnLastUse) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(2, 0, 0, -50, 50), {0});
  const int v2 = add(dm, scalar_mq(3, 0, 1, -50, 50), {v1});
  const int v3 = add(dm, std::make_unique<IntAddOp>(-100, 100), {v2, v1});
  dm.set_output(v3);

  const ExecutionPlan& plan = dm.plan();
  EXPECT_EQ(plan.num_slots(), 2u);  // v1 stays live across the fork
  ASSERT_EQ(plan.steps().size(), 3u);
  EXPECT_TRUE(plan.steps()[2].inplace);  // add reuses v2's slot, frees v1's

  const ITensor x = ITensor::from({4}, {-30, -2, 7, 19});
  const ITensor y = dm.run_int(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const std::int64_t a = std::min<std::int64_t>(
        50, std::max<std::int64_t>(-50, 2 * x[i]));
    const std::int64_t b = std::min<std::int64_t>(
        50, std::max<std::int64_t>(-50, (3 * a + 1) >> 1));
    EXPECT_EQ(y[i], std::min<std::int64_t>(
                        100, std::max<std::int64_t>(-100, a + b)))
        << i;
  }
  const auto mem = dm.memory_stats();
  EXPECT_EQ(mem.peak_bytes, 2 * x.numel() * 8);
  EXPECT_EQ(mem.naive_bytes, 4 * x.numel() * 8);
}

TEST(DeployPlanTest, OutputCanBeTheNetworkInput) {
  DeployModel dm;
  dm.set_output(0);
  const ITensor x = ITensor::from({3}, {1, -2, 3});
  const ITensor y = dm.run_int(x);
  expect_bit_identical(x, y, "identity graph");
}

TEST(DeployPlanTest, GraphMutationInvalidatesPlanAndStats) {
  DeployModel dm;
  int v = add(dm, scalar_mq(3, 0, 1, -100, 100), {0});
  dm.set_output(v);
  (void)dm.run_int(ITensor::from({2}, {1, 2}));
  EXPECT_EQ(dm.memory_stats().runs, 1u);

  v = add(dm, scalar_mq(5, 0, 1, -100, 100), {v});
  dm.set_output(v);
  EXPECT_EQ(dm.memory_stats().runs, 0u);  // stats reset with the plan
  EXPECT_EQ(dm.plan().steps().size(), 2u);
}

TEST(DeployPlanTest, RenderIsDeterministicAndNamesSlots) {
  DeployModel dm = foldable_graph();
  const std::string r1 = dm.plan().render(dm);
  const std::string r2 = dm.plan().render(dm);
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1.find("plan: 3 steps"), std::string::npos) << r1;
  EXPECT_NE(r1.find("MulQuant"), std::string::npos) << r1;
  EXPECT_NE(r1.find("inplace"), std::string::npos) << r1;
}

TEST(DeployPlanTest, SummaryTextReportsMemoryPlan) {
  DeployModel dm = foldable_graph();
  (void)dm.run_int(ITensor::from({1, 4}, {1, -2, 3, -4}));
  const std::string text = dm.summary_text();
  EXPECT_NE(text.find("memory plan:"), std::string::npos) << text;
  EXPECT_NE(text.find("arena slots"), std::string::npos) << text;
  EXPECT_NE(text.find("keep-everything"), std::string::npos) << text;
}

TEST(DeployPlanTest, MemoryGaugesPublishedWhenMetricsEnabled) {
  obs::metrics().reset();
  obs::set_metrics_enabled(true);
  DeployModel dm = foldable_graph();
  (void)dm.run_int(ITensor::from({1, 8}, {1, 2, 3, 4, 5, 6, 7, 8}));
  const auto snap = obs::metrics().snapshot();
  obs::set_metrics_enabled(false);
  obs::metrics().reset();
  ASSERT_TRUE(snap.gauges.count("deploy.mem.naive_bytes"));
  ASSERT_TRUE(snap.gauges.count("deploy.mem.peak_bytes"));
  ASSERT_TRUE(snap.gauges.count("deploy.mem.arena_bytes"));
  EXPECT_GT(snap.gauges.at("deploy.mem.naive_bytes"), 0.0);
  EXPECT_GE(snap.gauges.at("deploy.mem.naive_bytes"),
            snap.gauges.at("deploy.mem.peak_bytes"));
}

/// Depthwise-separable block on [batch, c, 8, 8]: depthwise 3x3 ->
/// per-channel MulQuant -> pointwise 1x1 -> per-tensor MulQuant, opt 2.
DeployModel separable_graph(std::int64_t c) {
  DeployModel dm;
  ConvSpec dw;
  dw.in_channels = dw.out_channels = c;
  dw.groups = static_cast<int>(c);
  dw.kernel = 3;
  dw.padding = 1;
  ITensor wd({c, 1, 3, 3});
  for (std::int64_t i = 0; i < wd.numel(); ++i) wd[i] = i % 7 - 3;
  const int v1 = add(dm, std::make_unique<IntConv2dOp>(std::move(wd), dw),
                     {0});
  const int v2 = add(dm,
                     std::make_unique<MulQuantOp>(
                         std::vector<std::int64_t>(c, 9),
                         std::vector<std::int64_t>(c, 1), 6, 0, 127,
                         MqLayout::kChannelNCHW),
                     {v1});
  ConvSpec pw;
  pw.in_channels = pw.out_channels = c;
  pw.kernel = 1;
  ITensor wp({c, c, 1, 1});
  for (std::int64_t i = 0; i < wp.numel(); ++i) wp[i] = i % 5 - 2;
  const int v3 = add(dm, std::make_unique<IntConv2dOp>(std::move(wp), pw),
                     {v2});
  dm.set_output(add(dm, scalar_mq(5, 0, 8, -127, 127), {v3}));
  (void)optimize_deploy_graph(dm, 2);
  return dm;
}

TEST(DeployPlanTest, ConvScratchAllocationsIndependentOfBatchAndChannels) {
  // Kernel scratch (panels, padded planes, A blocks) is worker-local and
  // reused, so a steady-state run_int allocates the same count whatever
  // the batch or channel count — nothing per (image, group) or per plane.
  if (!kT2cAllocCounting) {
    GTEST_SKIP() << "operator new/delete not replaced under ASan";
  }
  const ThreadGuard guard;
  par::set_max_threads(1);
  std::vector<std::int64_t> counts;
  for (const std::int64_t c : {16, 40, 64}) {  // 40: a partial block
    const DeployModel dm = separable_graph(c);
    EXPECT_EQ(dm.op(0).kernel(), "dwconv_i8_fused");
    EXPECT_EQ(dm.op(2).kernel(), "gemm_i8_fused");
    for (const std::int64_t batch : {1, 8}) {
      ITensor x({batch, c, 8, 8});
      for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = i % 255 - 127;
      for (int i = 0; i < 3; ++i) (void)dm.run_int(x);  // warm
      const std::int64_t before = g_t2c_alloc_count.load();
      (void)dm.run_int(x);
      counts.push_back(g_t2c_alloc_count.load() - before);
    }
  }
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[0]) << "config " << i;
  }
}

/// `depth` residual blocks on [batch, 8, 6, 6] at opt 2: 3x3 conv 8 -> 8,
/// 1x1 expand 8 -> 16, 1x1 reduce 16 -> 8, each with a fused MulQuant,
/// then an IntAdd with the block input. Outputs of two sizes alternate,
/// and the residual keeps a third value live.
DeployModel residual_chain_graph(int depth) {
  DeployModel dm;
  const auto conv = [&](int in, std::int64_t ic, std::int64_t oc, int k) {
    ConvSpec s;
    s.in_channels = ic;
    s.out_channels = oc;
    s.kernel = k;
    s.padding = k / 2;
    ITensor w({oc, ic, k, k});
    for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = (i * 7 + oc) % 9 - 4;
    const int v = add(dm, std::make_unique<IntConv2dOp>(std::move(w), s),
                      {in});
    return add(dm, scalar_mq(11, 3, 6, -127, 127), {v});
  };
  int v = 0;
  for (int b = 0; b < depth; ++b) {
    const int y = conv(conv(conv(v, 8, 8, 3), 8, 16, 1), 16, 8, 1);
    v = add(dm, std::make_unique<IntAddOp>(-127, 127), {y, v});
  }
  dm.set_output(v);
  (void)optimize_deploy_graph(dm, 2);
  return dm;
}

ITensor residual_input(std::int64_t batch, std::int64_t salt) {
  ITensor x({batch, 8, 6, 6});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = (i * 13 + salt) % 255 - 127;
  }
  return x;
}

TEST(DeployPlanTest, SteadyStateOutputsReuseParkedBuffers) {
  // Every packed conv step takes a parked buffer sized by its previous
  // run, so once warm the only tensor-sized allocation of a run, at any
  // depth and pool size, is the result that leaves the arena.
  if (!kT2cAllocCounting) {
    GTEST_SKIP() << "operator new/delete not replaced under ASan";
  }
  const ThreadGuard guard;
  for (const int threads : {1, 4}) {
    par::set_max_threads(threads);
    for (const int depth : {1, 4}) {
      const DeployModel dm = residual_chain_graph(depth);
      EXPECT_EQ(dm.op(0).kernel(), "gemm_i8_fused");
      const ITensor x = residual_input(8, 0);
      for (int i = 0; i < 2; ++i) (void)dm.run_int(x);  // warm
      for (int run = 0; run < 3; ++run) {
        const std::int64_t before = g_t2c_large_alloc_count.load();
        (void)dm.run_int(x);
        EXPECT_EQ(g_t2c_large_alloc_count.load() - before, 1)
            << "depth " << depth << " run " << run << " @" << threads;
      }
    }
  }
}

TEST(DeployPlanTest, RecycledBuffersNeverLeakIntoOutputs) {
  // Reused outputs are not zero-filled, so every kernel must overwrite
  // them: back-to-back runs with different inputs (and a larger batch
  // whose outputs outgrow the parked buffers) match fresh models.
  const ThreadGuard guard;
  for (const int threads : {1, 4}) {
    par::set_max_threads(threads);
    const DeployModel warm = residual_chain_graph(2);
    for (const auto& [batch, salt] :
         {std::pair<std::int64_t, std::int64_t>{2, 0}, {2, 5}, {3, 9},
          {2, 0}, {3, 1}}) {
      const ITensor x = residual_input(batch, salt);
      const DeployModel fresh = residual_chain_graph(2);
      expect_bit_identical(fresh.run_int(x), warm.run_int(x),
                           "batch " + std::to_string(batch) + " salt " +
                               std::to_string(salt) + " @" +
                               std::to_string(threads));
    }
  }
}

// ---- concurrency (runs under TSan via the t2c_tsan_deploy_parallel entry) ----

TEST(PlanConcurrency, ConcurrentRunsShareThePlanAndStayIdentical) {
  DeployModel dm;
  int v = add(dm, scalar_mq(3, 0, 1, -100, 100), {0});
  v = add(dm, scalar_mq(5, 1, 2, -100, 100), {v});
  v = add(dm, std::make_unique<IntAddOp>(-200, 200), {v, v});
  dm.set_output(v);

  const ITensor x = ITensor::from({64}, std::vector<std::int64_t>(64, 17));
  const ITensor want = dm.run_int(x);
  std::vector<std::thread> workers;
  std::vector<int> bad(8, 0);
  workers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < 16; ++r) {
        const ITensor y = dm.run_int(x);
        for (std::int64_t i = 0; i < y.numel(); ++i) {
          if (y[i] != want[i]) bad[static_cast<std::size_t>(t)] = 1;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0);
  EXPECT_EQ(dm.memory_stats().runs, 129u);
}

// ---- end-to-end: converted models across opt levels + thread counts ----

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

/// One QAT-trained model per binary run, shared across the e2e tests below
/// (training dominates their cost; conversion is cheap and done per test).
struct Trained {
  std::unique_ptr<SyntheticImageDataset> data;
  std::unique_ptr<Sequential> model;
};

Trained& trained_resnet() {
  static Trained t = [] {
    Trained r;
    r.data = std::make_unique<SyntheticImageDataset>(tiny_spec());
    ModelConfig mc;
    mc.num_classes = 4;
    mc.width_mult = 0.25F;
    mc.seed = 3;
    r.model = make_resnet20(mc);
    TrainerOptions o;
    o.train.epochs = 2;
    o.train.lr = 0.08F;
    make_trainer("qat", *r.model, *r.data, o)->fit();
    freeze_quantizers(*r.model);
    return r;
  }();
  return t;
}

Trained& trained_vit() {
  static Trained t = [] {
    Trained r;
    r.data = std::make_unique<SyntheticImageDataset>(tiny_spec());
    ModelConfig mc;
    mc.num_classes = 4;
    mc.vit_dim = 16;
    mc.vit_depth = 2;
    mc.vit_heads = 2;
    mc.vit_patch = 4;
    mc.seed = 3;
    r.model = make_vit(mc);
    TrainerOptions o;
    o.train.epochs = 2;
    o.train.lr = 0.02F;
    make_trainer("qat", *r.model, *r.data, o)->fit();
    freeze_quantizers(*r.model);
    return r;
  }();
  return t;
}

DeployModel convert_at(const Trained& t, int opt_level) {
  ConvertConfig cfg;
  cfg.input_shape = {3, 8, 8};
  cfg.opt_level = opt_level;
  T2CConverter conv(cfg);
  return conv.convert(*t.model);
}

Tensor test_batch(const Trained& t, int n) {
  Tensor x({n, 3, 8, 8});
  for (int i = 0; i < n; ++i) x.set0(i, t.data->test_images().select0(i));
  return x;
}

/// Replaces every occurrence of `dir` so reports written into different
/// temp dirs compare equal when the data matches.
std::string strip_dir(std::string json, const std::string& dir) {
  for (std::size_t p = json.find(dir); p != std::string::npos;
       p = json.find(dir, p)) {
    json.replace(p, dir.size(), "<golden>");
  }
  return json;
}

std::map<std::string, std::string> read_dir_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::ifstream is(e.path(), std::ios::binary);
    files[e.path().filename().string()] = std::string(
        std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  return files;
}

/// Audit JSON + golden-vector bytes of `dm` at the current thread count.
std::pair<std::string, std::map<std::string, std::string>> audit_artifacts(
    Sequential& model, const DeployModel& dm, const Tensor& x,
    const std::string& tag) {
  AuditConfig acfg;
  acfg.golden_dir = ::testing::TempDir() + "/t2c_pass_golden_" + tag;
  std::filesystem::remove_all(acfg.golden_dir);
  const AuditReport rep = run_dualpath_audit(model, dm, x, acfg);
  auto files = read_dir_bytes(acfg.golden_dir);
  return {strip_dir(rep.to_json(), acfg.golden_dir), std::move(files)};
}

void expect_artifacts_equal(
    const std::pair<std::string, std::map<std::string, std::string>>& a,
    const std::pair<std::string, std::map<std::string, std::string>>& b,
    const std::string& what) {
  EXPECT_EQ(a.first, b.first) << "audit JSON diverged: " << what;
  ASSERT_EQ(a.second.size(), b.second.size()) << what;
  for (const auto& [name, bytes] : a.second) {
    const auto it = b.second.find(name);
    ASSERT_NE(it, b.second.end()) << name << " missing: " << what;
    EXPECT_EQ(bytes, it->second) << name << " diverged: " << what;
  }
}

TEST(PassesE2E, CnnBitIdenticalAcrossOptLevelsAndThreadCounts) {
  const ThreadGuard guard;
  Trained& t = trained_resnet();
  const DeployModel dm0 = convert_at(t, 0);
  const DeployModel dm2 = convert_at(t, 2);
  const Tensor x = test_batch(t, 8);

  par::set_max_threads(1);
  const ITensor q = dm0.quantize_input(x);
  const ITensor ref = dm0.run_int(q);
  for (const int threads : {1, 4, 16}) {
    par::set_max_threads(threads);
    expect_bit_identical(ref, dm0.run_int(q),
                         "cnn opt0 @" + std::to_string(threads));
    expect_bit_identical(ref, dm2.run_int(q),
                         "cnn opt2 @" + std::to_string(threads));
  }
}

TEST(PassesE2E, MobileNetBitIdenticalAcrossOptLevelsAndThreadCounts) {
  // PTQ-calibrated MobileNet-V1 w0.5 at 16x16: its 13 depthwise convs run
  // the direct kernel from 16 channels on a 16x16 map (one channel block)
  // to 512 on 1x1 (32 blocks); opt 2 must match opt 0 bit for bit.
  const ThreadGuard guard;
  DatasetSpec spec = cifar10_sim();
  spec.classes = 8;
  spec.train_size = 32;
  spec.test_size = 8;
  const SyntheticImageDataset data(spec);
  ModelConfig mc;
  mc.num_classes = spec.classes;
  mc.width_mult = 0.5F;
  mc.seed = 3;
  const auto model = make_mobilenet_v1(mc);
  DataLoader loader(data.train_images(), data.train_labels(), 16,
                    /*shuffle=*/false, 1);
  calibrate(*model, loader, 2);
  ConvertConfig cfg;
  cfg.input_shape = {spec.channels, spec.height, spec.width};
  const DeployModel dm2 = T2CConverter(cfg).convert(*model);  // opt 2
  cfg.opt_level = 0;
  const DeployModel dm0 = T2CConverter(cfg).convert(*model);
  std::size_t direct = 0;
  for (std::size_t i = 0; i < dm2.num_ops(); ++i) {
    direct += dm2.op(i).kernel().rfind("dwconv_i8", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(direct, 13u);

  par::set_max_threads(1);
  const ITensor q = dm0.quantize_input(data.test_images());
  ASSERT_EQ(q.size(0), 8);
  const ITensor ref = dm0.run_int(q);
  for (const int threads : {1, 4}) {
    par::set_max_threads(threads);
    expect_bit_identical(ref, dm2.run_int(q),
                         "mobilenet opt2 @" + std::to_string(threads));
  }
}

TEST(PassesE2E, CnnAuditArtifactsByteEqualAcrossOptLevels) {
  const ThreadGuard guard;
  Trained& t = trained_resnet();
  const DeployModel dm0 = convert_at(t, 0);
  const DeployModel dm2 = convert_at(t, 2);
  const Tensor x = test_batch(t, 4);
  for (const int threads : {1, 4, 16}) {
    par::set_max_threads(threads);
    const auto a0 = audit_artifacts(*t.model, dm0, x,
                                    "cnn0_" + std::to_string(threads));
    const auto a2 = audit_artifacts(*t.model, dm2, x,
                                    "cnn2_" + std::to_string(threads));
    expect_artifacts_equal(a0, a2, "cnn @" + std::to_string(threads));
  }
  obs::float_taps().clear();
  obs::int_taps().clear();
}

TEST(PassesE2E, VitBitIdenticalAndAuditByteEqualAcrossOptLevels) {
  const ThreadGuard guard;
  Trained& t = trained_vit();
  const DeployModel dm0 = convert_at(t, 0);
  const DeployModel dm2 = convert_at(t, 2);
  const Tensor x = test_batch(t, 3);

  par::set_max_threads(1);
  const ITensor q = dm0.quantize_input(x);
  const ITensor ref = dm0.run_int(q);
  for (const int threads : {1, 4, 16}) {
    par::set_max_threads(threads);
    expect_bit_identical(ref, dm0.run_int(q),
                         "vit opt0 @" + std::to_string(threads));
    expect_bit_identical(ref, dm2.run_int(q),
                         "vit opt2 @" + std::to_string(threads));
    const auto a0 = audit_artifacts(*t.model, dm0, x,
                                    "vit0_" + std::to_string(threads));
    const auto a2 = audit_artifacts(*t.model, dm2, x,
                                    "vit2_" + std::to_string(threads));
    expect_artifacts_equal(a0, a2, "vit @" + std::to_string(threads));
  }
  obs::float_taps().clear();
  obs::int_taps().clear();
}

TEST(PassesE2E, ArenaPeakIsAtMostHalfOfKeepEverything) {
  Trained& t = trained_resnet();
  const DeployModel dm = convert_at(t, 2);
  const Tensor x = test_batch(t, 8);
  (void)dm.run_int(dm.quantize_input(x));
  const auto mem = dm.memory_stats();
  ASSERT_GT(mem.naive_bytes, 0);
  ASSERT_GT(mem.peak_bytes, 0);
  // The acceptance bar: the liveness-planned arena holds at most half of
  // what the retired keep-everything executor held live.
  EXPECT_LE(2 * mem.peak_bytes, mem.naive_bytes)
      << "peak " << mem.peak_bytes << " naive " << mem.naive_bytes;
  EXPECT_GT(mem.inplace_steps, 0u);
  EXPECT_LT(mem.plan_slots, dm.num_ops());
}

TEST(PassesE2E, ConversionUnderAnyIsaCapServesAtTheTopRung) {
  // The plan names strategies, not ISAs: a model converted under the
  // generic cap compiles the same plan as one converted at the top rung,
  // and served at the top rung it gives the same outputs.
  for (Trained* t : {&trained_resnet(), &trained_vit()}) {
    const DeployModel low = [&] {
      const IsaCapGuard cap_guard;
      util::set_isa_tier_cap(util::IsaTier::kGeneric);
      DeployModel dm = convert_at(*t, 2);
      (void)dm.plan();  // packs the weights under the generic cap too
      return dm;
    }();
    const DeployModel top = convert_at(*t, 2);
    EXPECT_EQ(low.plan().render(low), top.plan().render(top));
    const ITensor q = top.quantize_input(test_batch(*t, 8));
    expect_bit_identical(top.run_int(q), low.run_int(q), "generic-cap plan");
  }
}

// ---- golden plan text (t2c_plan_golden ctest entry) ----

/// Compares (or regenerates, with T2C_GOLDEN_REGEN=1) the deterministic
/// opt-2 plan rendering of `t` against tests/golden/<name>, converting
/// under every ISA cap: one golden file holds for all of them. Skips when
/// T2C_GOLDEN_DIR is not set — the dedicated ctest entry provides it.
void check_plan_golden(const Trained& t, const std::string& name) {
  const char* dir = std::getenv("T2C_GOLDEN_DIR");
  if (dir == nullptr) GTEST_SKIP() << "T2C_GOLDEN_DIR not set";
  const std::string path = std::string(dir) + "/" + name;
  const IsaCapGuard cap_guard;
  for (const util::IsaTier cap : kIsaCaps) {
    util::set_isa_tier_cap(cap);
    const DeployModel dm = convert_at(t, 2);
    const std::string got = dm.plan().render(dm);
    if (std::getenv("T2C_GOLDEN_REGEN") != nullptr) {
      std::ofstream os(path, std::ios::binary);
      os << got;
      ASSERT_TRUE(os.good()) << "cannot write " << path;
      continue;
    }
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good()) << path
                           << " missing — regenerate with T2C_GOLDEN_REGEN=1";
    const std::string want((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(got, want) << "plan drifted for " << name << " at cap "
                         << util::isa_tier_name(cap)
                         << " — regenerate with T2C_GOLDEN_REGEN=1 if intended";
  }
}

TEST(PlanGolden, ResnetPlanMatchesGoldenText) {
  check_plan_golden(trained_resnet(), "plan_resnet20.txt");
}

TEST(PlanGolden, VitPlanMatchesGoldenText) {
  check_plan_golden(trained_vit(), "plan_vit.txt");
}

}  // namespace
}  // namespace t2c
