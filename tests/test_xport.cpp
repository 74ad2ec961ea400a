// Export tests (Fig. 5): decimal / hex / binary round-trips are bit-exact,
// word-width enforcement, shape headers checked before they size an
// allocation, PE-tile unrolling, the integer checkpoint, and
// hex memory-image export of a full deploy model with replay verification —
// precisely what an RTL testbench consumes and checks.
#include <gtest/gtest.h>

#include <charconv>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string_view>

#include "audit/dualpath_audit.h"
#include "core/registry.h"
#include "core/t2c.h"
#include "deploy/int_ops.h"
#include "deploy/passes.h"
#include "fusion/mulquant.h"
#include "models/models.h"
#include "obs/capture.h"
#include "test_util.h"
#include "xport/checkpoint.h"
#include "xport/writers.h"

namespace t2c {
namespace {

ITensor random_weights(Shape shape, int lo, int hi, std::uint64_t seed) {
  ITensor t(std::move(shape));
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.randint(lo, hi);
  return t;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Writers, DecimalRoundTrip) {
  ITensor w = random_weights({3, 4, 2, 2}, -127, 127, 1);
  const std::string p = tmp_path("w.txt");
  write_decimal(p, w);
  ITensor r = read_decimal(p);
  ASSERT_TRUE(r.same_shape(w));
  for (std::int64_t i = 0; i < w.numel(); ++i) ASSERT_EQ(r[i], w[i]);
}

TEST(Writers, HexRoundTripSignedValues) {
  for (int bits : {4, 8, 12, 16}) {
    const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
    ITensor w = random_weights({16}, static_cast<int>(-hi),
                               static_cast<int>(hi), 2);
    const std::string p = tmp_path("w" + std::to_string(bits) + ".hex");
    write_hex(p, w, bits);
    ITensor r = read_hex(p, bits);
    ASSERT_TRUE(r.same_shape(w));
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      ASSERT_EQ(r[i], w[i]) << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(Writers, HexRejectsOutOfRangeValues) {
  ITensor w = ITensor::from({1}, {300});
  EXPECT_THROW(write_hex(tmp_path("bad.hex"), w, 8), Error);
}

TEST(Writers, HexFileIsReadmemhCompatible) {
  ITensor w = ITensor::from({2}, {-1, 10});
  const std::string p = tmp_path("mem.hex");
  write_hex(p, w, 8);
  std::ifstream is(p);
  std::string l1, l2, l3, l4;
  std::getline(is, l1);  // // shape comment
  std::getline(is, l2);  // // word_bits comment
  std::getline(is, l3);
  std::getline(is, l4);
  EXPECT_EQ(l1.rfind("//", 0), 0u);
  EXPECT_EQ(l3, "FF");  // -1 in 8-bit two's complement
  EXPECT_EQ(l4, "0A");
}

TEST(Writers, BinaryRoundTrip) {
  ITensor w = random_weights({5, 7}, -1000, 1000, 3);
  const std::string p = tmp_path("w.bin");
  write_binary(p, w);
  ITensor r = read_binary(p);
  ASSERT_TRUE(r.same_shape(w));
  for (std::int64_t i = 0; i < w.numel(); ++i) ASSERT_EQ(r[i], w[i]);
}

TEST(Writers, HexRejectsNegativeShape) {
  // Four words and dims whose product is also 4: only the sign is wrong.
  const std::string p = tmp_path("neg_shape.hex");
  std::ofstream(p) << "// shape -2 -2\n// word_bits 8\n01\n02\n03\n04\n";
  EXPECT_THROW(read_hex(p, 8), Error);
}

TEST(Writers, HexRejectsOverflowingShape) {
  // 2^32 * 2^32 wraps to 0 in int64, which would match the empty body.
  const std::string p = tmp_path("wrap_shape.hex");
  std::ofstream(p) << "// shape 4294967296 4294967296\n// word_bits 8\n";
  EXPECT_THROW(read_hex(p, 8), Error);
}

TEST(Writers, BinaryRejectsShapeBeyondTheFile) {
  // A 20-byte file whose header claims 65535^3 int32 elements.
  const std::uint32_t header[] = {0x54324321u, 3, 65535, 65535, 65535};
  const std::string p = tmp_path("huge_shape.bin");
  std::ofstream(p, std::ios::binary)
      .write(reinterpret_cast<const char*>(header), sizeof(header));
  EXPECT_THROW(read_binary(p), Error);
}

TEST(Writers, RequiredWordBits) {
  EXPECT_EQ(required_word_bits(ITensor::from({2}, {1, -2})), 2);
  EXPECT_EQ(required_word_bits(ITensor::from({1}, {127})), 8);
  EXPECT_EQ(required_word_bits(ITensor::from({1}, {128})), 9);
  EXPECT_EQ(required_word_bits(ITensor::from({1}, {-128})), 8);
}

TEST(Writers, TiledUnrollInterleavesLanes) {
  // 4 output channels, 2 weights each, tile = 2:
  // lanes {0,1} stream row-by-row, then lanes {2,3}.
  ITensor w = ITensor::from({4, 2}, {0, 1, 10, 11, 20, 21, 30, 31});
  ITensor u = unroll_tiled(w, 2);
  const std::int64_t want[] = {0, 10, 1, 11, 20, 30, 21, 31};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(u[i], want[i]) << i;
}

TEST(Writers, TiledUnrollHandlesRaggedTail) {
  ITensor w = ITensor::from({3, 1}, {5, 6, 7});
  ITensor u = unroll_tiled(w, 2);
  EXPECT_EQ(u[0], 5);
  EXPECT_EQ(u[1], 6);
  EXPECT_EQ(u[2], 7);
}

TEST(Checkpoint, SingleOpRoundTrip) {
  DeployModel dm;
  auto mq = std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{100, 200}, std::vector<std::int64_t>{-5, 5},
      12, -127, 127, MqLayout::kLastDim);
  mq->inputs = {0};
  mq->label = "probe";
  dm.set_output(dm.add_op(std::move(mq)));
  dm.input_scale = 0.25F;
  dm.output_scale = 0.5F;
  const std::string p = tmp_path("single.t2c");
  save_checkpoint(dm, p);
  DeployModel r = load_checkpoint(p);
  EXPECT_EQ(r.num_ops(), 1u);
  EXPECT_EQ(r.op(0).kind(), "MulQuant");
  EXPECT_EQ(r.op(0).label, "probe");
  EXPECT_FLOAT_EQ(r.input_scale, 0.25F);
  ITensor x = ITensor::from({1, 2}, {40, -40});
  ITensor a = dm.run_int(x);
  ITensor b = r.run_int(x);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
}

TEST(Checkpoint, OptimizedGraphRoundTripsBitExactWithAudit) {
  // Build a graph the pass pipeline actually rewrites (a foldable x16
  // upshift requant), optimize it, and require the checkpoint to carry the
  // rewritten ops AND the remapped audit metadata through the text format.
  DeployModel dm;
  auto pre = std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{3}, std::vector<std::int64_t>{0}, 2, -7, 7,
      MqLayout::kPerTensor);
  pre->inputs = {0};
  pre->label = "pre";
  dm.add_op(std::move(pre));
  const FixedPointFormat fmt{8, 8};
  auto rq = make_requant(16.0, 1.0, fmt, -(1 << 14), 1 << 14);
  rq->inputs = {1};
  rq->label = "requant";
  dm.add_op(std::move(rq));
  auto post = std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{100}, std::vector<std::int64_t>{37}, 8, -127,
      127, MqLayout::kPerTensor, 6);
  post->inputs = {2};
  post->label = "post";
  const int out = dm.add_op(std::move(post));
  dm.set_output(out);
  OpAuditInfo info;
  info.source = "stage.post";
  info.out_scale = 0.1234567F;  // must survive the text format exactly
  info.qmin = -127;
  info.qmax = 127;
  dm.set_audit(out, info);

  ASSERT_GE(optimize_deploy_graph(dm, 2), 1u);
  ASSERT_EQ(dm.num_ops(), 2u);

  const std::string p = tmp_path("optimized.t2c");
  save_checkpoint(dm, p);
  DeployModel r = load_checkpoint(p);
  ASSERT_EQ(r.num_ops(), 2u);
  EXPECT_EQ(r.op(1).label, "post");
  EXPECT_EQ(r.audit_of(1).source, "stage.post");
  EXPECT_EQ(r.audit_of(1).out_scale, dm.audit_of(1).out_scale);  // bit-exact
  EXPECT_EQ(r.audit_of(1).qmin, -127);
  EXPECT_EQ(r.audit_of(1).qmax, 127);
  for (std::int64_t v = -127; v <= 127; ++v) {
    const ITensor x = ITensor::from({1, 1}, {v});
    const ITensor a = dm.run_int(x);
    const ITensor b = r.run_int(x);
    ASSERT_EQ(a[0], b[0]) << "x=" << v;
  }
}

TEST(Checkpoint, RejectsCorruptFiles) {
  const std::string p = tmp_path("corrupt.t2c");
  std::ofstream(p) << "NOT-A-CHECKPOINT\n";
  EXPECT_THROW((void)load_checkpoint(p), Error);
}

DatasetSpec xport_spec() {
  DatasetSpec spec;
  spec.classes = 4;
  spec.height = spec.width = 8;
  spec.train_size = 96;
  spec.test_size = 48;
  spec.noise = 0.25F;
  spec.class_sep = 1.2F;
  spec.seed = 5;
  return spec;
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Checkpoints of a trained ResNet-20 and a trained ViT, written once and
/// shared by the round-trip and corruption tests (training dominates).
struct CheckpointCorpus {
  std::string cnn;
  std::string vit;
};

const CheckpointCorpus& corpus() {
  static const CheckpointCorpus c = [] {
    SyntheticImageDataset data(xport_spec());
    ConvertConfig cfg;
    cfg.input_shape = {3, 8, 8};
    T2CConverter conv(cfg);
    ModelConfig mc;
    mc.num_classes = 4;
    mc.width_mult = 0.25F;
    mc.seed = 3;
    TrainerOptions o;
    o.train.epochs = 1;
    auto cnn = make_resnet20(mc);
    make_trainer("qat", *cnn, data, o)->fit();
    freeze_quantizers(*cnn);
    mc.width_mult = 1.0F;
    mc.vit_dim = 16;
    mc.vit_depth = 2;
    mc.vit_heads = 2;
    mc.vit_patch = 4;
    o.train.lr = 0.02F;
    auto vit = make_vit(mc);
    make_trainer("qat", *vit, data, o)->fit();
    freeze_quantizers(*vit);
    CheckpointCorpus out{tmp_path("corpus_cnn.t2c"), tmp_path("corpus_vit.t2c")};
    save_checkpoint(conv.convert(*cnn), out.cnn);
    save_checkpoint(conv.convert(*vit), out.vit);
    return out;
  }();
  return c;
}

TEST(TextIo, CheckpointSaveLoadSaveIsByteIdentical) {
  for (const std::string& p : {corpus().cnn, corpus().vit}) {
    const std::string again = p + ".again";
    save_checkpoint(load_checkpoint(p), again);
    EXPECT_EQ(read_bytes(again), read_bytes(p)) << p;
  }
}

/// Loads `text` as a checkpoint; true when it is rejected with t2c::Error.
/// Any other exception (bad_alloc, std::length_error, ...) fails the test.
bool rejected(const std::string& text, const std::string& path) {
  std::ofstream(path, std::ios::binary) << text;
  try {
    (void)load_checkpoint(path);
  } catch (const Error&) {
    return true;
  }
  return false;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (true) {
    i = s.find_first_not_of(" \n", i);
    if (i == std::string_view::npos) return out;
    const std::size_t j = std::min(s.find_first_of(" \n", i), s.size());
    out.push_back(s.substr(i, j - i));
    i = j;
  }
}

bool parse_int(std::string_view tok, std::int64_t& v) {
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v);
  return ec == std::errc() && ptr == tok.data() + tok.size();
}

bool numeric(std::string_view tok) {
  return tok.find_first_not_of("0123456789-.e") == std::string_view::npos &&
         tok.find_first_of("0123456789") != std::string_view::npos;
}

TEST(Checkpoint, TruncatedAndCorruptedFilesThrow) {
  const std::string scratch = tmp_path("mutant.t2c");
  const std::string huge = "999999999999";
  for (const std::string& p : {corpus().vit, corpus().cnn}) {
    const std::string full = read_bytes(p);
    ASSERT_FALSE(rejected(full, scratch)) << p;
    EXPECT_TRUE(rejected(full + "7\n", scratch)) << p << " trailing data";

    // ~256 prefix lengths over the file, plus every cut in the last line.
    std::vector<std::size_t> cuts;
    for (std::size_t k = 0; k < 256; ++k) cuts.push_back(full.size() * k / 256);
    for (std::size_t len = full.rfind('\n', full.size() - 2);
         len < full.size(); ++len) {
      cuts.push_back(len);
    }
    for (const std::size_t len : cuts) {
      // Cutting exactly before a final audit line leaves a valid checkpoint:
      // audit lines are optional.
      if (full.compare(len, 6, "audit ") == 0 &&
          full.find('\n', len) + 1 == full.size()) {
        continue;
      }
      EXPECT_TRUE(rejected(full.substr(0, len), scratch))
          << p << " cut at " << len;
    }

    // Single digits of numeric fields flipped to a letter.
    std::vector<std::size_t> digits;
    for (const std::string_view tok : split_ws(full)) {
      if (!numeric(tok)) continue;
      const std::size_t at = static_cast<std::size_t>(tok.data() - full.data());
      for (std::size_t j = 0; j < tok.size(); ++j) {
        if (tok[j] >= '0' && tok[j] <= '9') digits.push_back(at + j);
      }
    }
    ASSERT_GT(digits.size(), 256u);
    for (std::size_t k = 0; k < 256; ++k) {
      std::string mutant = full;
      const std::size_t at = digits[digits.size() * k / 256];
      mutant[at] = 'q';
      EXPECT_TRUE(rejected(mutant, scratch)) << p << " digit at " << at;
    }

    // Huge size fields: the op count, each op's input count, every vector
    // length and tensor rank, and the first dim of every tensor.
    const std::vector<std::string_view> lines = [&] {
      std::vector<std::string_view> ls;
      for (std::size_t i = 0; i < full.size();) {
        const std::size_t j = full.find('\n', i);
        ls.emplace_back(full.data() + i, j - i);
        i = j + 1;
      }
      return ls;
    }();
    std::size_t mutated = 0;
    bool data_line = false;  // the line after a tensor shape holds values
    for (std::size_t li = 0; li < lines.size(); ++li) {
      const auto toks = split_ws(lines[li]);
      std::vector<std::string_view> targets;
      std::int64_t n = 0;
      if (data_line || toks.empty()) {
        data_line = false;
      } else if (toks[0] == "ops" || toks[0] == "op") {
        targets.push_back(toks[toks[0] == "ops" ? 1 : 3]);
      } else if (parse_int(toks[0], n) &&
                 n + 1 == static_cast<std::int64_t>(toks.size())) {
        targets.push_back(toks[0]);
        // A shape line: the next line holds exactly numel values.
        std::int64_t numel = n >= 1 && n <= 8 ? 1 : -1;
        for (std::size_t d = 1; numel > 0 && d < toks.size(); ++d) {
          std::int64_t dim = 0;
          const bool plausible = parse_int(toks[d], dim) && dim > 0 &&
                                 dim < (1 << 20) && numel < (1 << 30);
          numel = plausible ? numel * dim : -1;
        }
        if (numel > 0 && li + 1 < lines.size() &&
            static_cast<std::int64_t>(split_ws(lines[li + 1]).size()) ==
                numel) {
          targets.push_back(toks[1]);
          data_line = true;
        }
      }
      for (const std::string_view t : targets) {
        std::string mutant = full;
        mutant.replace(static_cast<std::size_t>(t.data() - full.data()),
                       t.size(), huge);
        EXPECT_TRUE(rejected(mutant, scratch))
            << p << " line " << li << ": " << lines[li].substr(0, 40);
        ++mutated;
      }
    }
    EXPECT_GT(mutated, 20u) << p;
  }
}

class ExportedModel : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = std::make_unique<SyntheticImageDataset>(xport_spec());
    ModelConfig mc;
    mc.num_classes = 4;
    mc.width_mult = 0.25F;
    mc.seed = 3;
    model_ = make_resnet20(mc);
    TrainerOptions o;
    o.train.epochs = 2;
    auto tr = make_trainer("qat", *model_, *data_, o);
    tr->fit();
    freeze_quantizers(*model_);
    ConvertConfig cfg;
    cfg.input_shape = {3, 8, 8};
    T2CConverter conv(cfg);
    dm_ = std::make_unique<DeployModel>(conv.convert(*model_));
  }

  std::unique_ptr<SyntheticImageDataset> data_;
  std::unique_ptr<Sequential> model_;
  std::unique_ptr<DeployModel> dm_;
};

TEST_F(ExportedModel, FullCheckpointReplaysBitExact) {
  const std::string p = tmp_path("model_full.t2c");
  save_checkpoint(*dm_, p);
  DeployModel r = load_checkpoint(p);
  Tensor x({4, 3, 8, 8});
  for (int i = 0; i < 4; ++i) x.set0(i, data_->test_images().select0(i));
  ITensor a = dm_->run_int(dm_->quantize_input(x));
  ITensor b = r.run_int(r.quantize_input(x));
  ASSERT_TRUE(a.same_shape(b));
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST_F(ExportedModel, CheckpointedGraphYieldsIdenticalAuditJson) {
  // The converter-attached audit metadata now rides in the checkpoint, so
  // a reloaded (optimized, opt_level 2 default) graph must audit exactly
  // like the in-memory one — same rows, same SQNR, same golden vectors.
  const std::string p = tmp_path("model_audit.t2c");
  save_checkpoint(*dm_, p);
  DeployModel r = load_checkpoint(p);
  for (std::size_t i = 0; i < dm_->num_ops(); ++i) {
    EXPECT_EQ(r.audit_of(i).source, dm_->audit_of(i).source) << i;
    EXPECT_EQ(r.audit_of(i).out_scale, dm_->audit_of(i).out_scale) << i;
    EXPECT_EQ(r.audit_of(i).qmin, dm_->audit_of(i).qmin) << i;
    EXPECT_EQ(r.audit_of(i).qmax, dm_->audit_of(i).qmax) << i;
  }
  Tensor x({4, 3, 8, 8});
  for (int i = 0; i < 4; ++i) x.set0(i, data_->test_images().select0(i));
  const auto audit_json = [&](const DeployModel& dm, const std::string& tag) {
    AuditConfig acfg;
    acfg.golden_dir = ::testing::TempDir() + "/t2c_xport_audit_" + tag;
    std::filesystem::remove_all(acfg.golden_dir);
    std::string json = run_dualpath_audit(*model_, dm, x, acfg).to_json();
    for (std::size_t q = json.find(acfg.golden_dir); q != std::string::npos;
         q = json.find(acfg.golden_dir, q)) {
      json.replace(q, acfg.golden_dir.size(), "<dir>");
    }
    return json;
  };
  EXPECT_EQ(audit_json(*dm_, "mem"), audit_json(r, "ckpt"));
  obs::float_taps().clear();
  obs::int_taps().clear();
}

TEST_F(ExportedModel, HexImagesMatchGraphWeights) {
  const std::string dir = tmp_path("heximg");
  auto files = export_hex_images(*dm_, dir, 8);
  ASSERT_FALSE(files.empty());
  // Parse the first conv image back and compare to the in-graph weights.
  for (std::size_t i = 0; i < dm_->num_ops(); ++i) {
    if (const auto* c = dynamic_cast<const IntConv2dOp*>(&dm_->op(i))) {
      // Find the file whose name starts with the op index.
      char prefix[32];
      std::snprintf(prefix, sizeof(prefix), "%03zu_", i);
      std::string found;
      for (const auto& f : files) {
        if (f.path.find(std::string("/") + prefix) != std::string::npos) {
          found = f.path;
        }
      }
      ASSERT_FALSE(found.empty());
      ITensor r = read_hex(found, 8);
      ASSERT_TRUE(r.same_shape(c->weight()));
      for (std::int64_t j = 0; j < r.numel(); ++j) {
        ASSERT_EQ(r[j], c->weight()[j]);
      }
      break;  // one conv is representative; loop kept for generality
    }
  }
}

TEST(CheckpointViT, AttentionGraphReplaysBitExact) {
  // Exercises serialization of IntAttention / LutSoftmax / LutGelu /
  // IntLayerNorm / Tokenize — every field, including the logit prescale
  // and fractional-bias units.
  SyntheticImageDataset data(xport_spec());
  ModelConfig mc;
  mc.num_classes = 4;
  mc.vit_dim = 16;
  mc.vit_depth = 2;
  mc.vit_heads = 2;
  mc.vit_patch = 4;
  mc.seed = 3;
  auto model = make_vit(mc);
  TrainerOptions o;
  o.train.epochs = 2;
  o.train.lr = 0.02F;
  make_trainer("qat", *model, data, o)->fit();
  freeze_quantizers(*model);
  ConvertConfig cfg;
  cfg.input_shape = {3, 8, 8};
  T2CConverter conv(cfg);
  DeployModel dm = conv.convert(*model);

  const std::string p = tmp_path("vit_full.t2c");
  save_checkpoint(dm, p);
  DeployModel r = load_checkpoint(p);
  Tensor x({3, 3, 8, 8});
  for (int i = 0; i < 3; ++i) x.set0(i, data.test_images().select0(i));
  ITensor a = dm.run_int(dm.quantize_input(x));
  ITensor b = r.run_int(r.quantize_input(x));
  ASSERT_TRUE(a.same_shape(b));
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST_F(ExportedModel, T2CFiveLineApiWritesAllArtifacts) {
  ConvertConfig cfg;
  cfg.input_shape = {3, 8, 8};
  T2C t2c(*model_, cfg);
  const std::string dir = tmp_path("five_line_out");
  (void)t2c.nn2chip(/*save_model=*/true, dir);
  EXPECT_TRUE(std::filesystem::exists(dir + "/model.t2c"));
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/hex"));
  EXPECT_GT(std::distance(std::filesystem::directory_iterator(dir + "/hex"),
                          std::filesystem::directory_iterator{}),
            10);
}

}  // namespace
}  // namespace t2c
