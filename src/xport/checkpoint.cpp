#include "xport/checkpoint.h"

#include "deploy/int_ops.h"
#include "deploy/vit_ops.h"
#include "util/textio.h"

namespace t2c {

namespace {

constexpr const char* kHeader = "T2C-DEPLOY-V2";
// V1 stored tensor bodies as decimal text; it is read, never written.
constexpr const char* kHeaderV1 = "T2C-DEPLOY-V1";

std::string escape_token(const std::string& s) {
  if (s.empty()) return "-";
  std::string out = s;
  for (char& c : out) {
    if (c == ' ' || c == '\n') c = '_';
  }
  return out;
}

std::string unescape_token(std::string_view s) {
  return s == "-" ? std::string() : std::string(s);
}

ITensor read_tensor(textio::Reader& r, const char* field, bool v1) {
  Shape shape = r.shape(field);
  std::vector<std::int64_t> data =
      v1 ? r.values(shape, field) : r.block(shape, field);
  return ITensor::from(std::move(shape), std::move(data));
}

// Fields are read one statement at a time: the order of evaluation of
// function arguments is unspecified, the order of the file is not.
std::unique_ptr<DeployOp> load_op(std::string_view kind, textio::Reader& r,
                                  bool v1) {
  if (kind == "MulQuant") {
    const std::int64_t lo = r.i64("MulQuant out_min");
    const std::int64_t hi = r.i64("MulQuant out_max");
    const int layout =
        r.i32_in("MulQuant layout", static_cast<int>(MqLayout::kPerTensor),
                 static_cast<int>(MqLayout::kLastDim));
    const int bias_frac = r.i32("MulQuant bias_frac");
    auto mul = r.vec<std::int64_t>("MulQuant mul");
    auto bias = r.vec<std::int64_t>("MulQuant bias");
    auto frac = r.vec<int>("MulQuant frac_bits");
    return std::make_unique<MulQuantOp>(std::move(mul), std::move(bias),
                                        std::move(frac), lo, hi,
                                        static_cast<MqLayout>(layout),
                                        bias_frac);
  }
  if (kind == "IntConv2d") {
    ConvSpec spec;
    spec.in_channels = r.i64("IntConv2d in_channels");
    spec.out_channels = r.i64("IntConv2d out_channels");
    spec.kernel = r.i32("IntConv2d kernel");
    spec.stride = r.i32("IntConv2d stride");
    spec.padding = r.i32("IntConv2d padding");
    spec.groups = r.i32("IntConv2d groups");
    ITensor w = read_tensor(r, "IntConv2d weight", v1);
    return std::make_unique<IntConv2dOp>(std::move(w), spec);
  }
  if (kind == "IntLinear") {
    return std::make_unique<IntLinearOp>(
        read_tensor(r, "IntLinear weight", v1));
  }
  if (kind == "IntAdd") {
    const std::int64_t lo = r.i64("IntAdd out_min");
    const std::int64_t hi = r.i64("IntAdd out_max");
    return std::make_unique<IntAddOp>(lo, hi);
  }
  if (kind == "IntMaxPool2d") {
    const int k = r.i32("IntMaxPool2d kernel");
    const int s = r.i32("IntMaxPool2d stride");
    const int p = r.i32("IntMaxPool2d padding");
    return std::make_unique<IntMaxPool2dOp>(k, s, p);
  }
  if (kind == "IntGlobalAvgPool" || kind == "IntMeanPoolTokens") {
    const std::int64_t m = r.i64("pool mul");
    const int f = r.i32("pool frac_bits");
    const std::int64_t lo = r.i64("pool out_min");
    const std::int64_t hi = r.i64("pool out_max");
    if (kind == "IntGlobalAvgPool") {
      return std::make_unique<IntGlobalAvgPoolOp>(m, f, lo, hi);
    }
    return std::make_unique<IntMeanPoolTokensOp>(m, f, lo, hi);
  }
  if (kind == "Tokenize") {
    return std::make_unique<TokenizeOp>();
  }
  if (kind == "LutSoftmax") {
    const std::int64_t p_qmax = r.i64("LutSoftmax p_qmax");
    return std::make_unique<LutSoftmaxOp>(r.vec<std::int64_t>("LutSoftmax lut"),
                                          p_qmax);
  }
  if (kind == "LutGelu") {
    const std::int64_t lo = r.i64("LutGelu in_min");
    const std::int64_t hi = r.i64("LutGelu in_max");
    const std::int64_t step = r.i64("LutGelu index_step");
    return std::make_unique<LutGeluOp>(r.vec<std::int64_t>("LutGelu lut"), lo,
                                       hi, step);
  }
  if (kind == "IntLayerNorm") {
    const int running = r.i32_in("IntLayerNorm running", 0, 1);
    const int frac = r.i32("IntLayerNorm frac_bits");
    const std::int64_t lo = r.i64("IntLayerNorm out_min");
    const std::int64_t hi = r.i64("IntLayerNorm out_max");
    const std::int64_t mean = r.i64("IntLayerNorm mean");
    const std::int64_t inv_sigma = r.i64("IntLayerNorm inv_sigma");
    const int stat_frac = r.i32("IntLayerNorm stat_frac");
    auto gamma = r.vec<std::int64_t>("IntLayerNorm gamma");
    auto beta = r.vec<std::int64_t>("IntLayerNorm beta");
    if (running != 0) {
      return std::make_unique<IntLayerNormOp>(std::move(gamma),
                                              std::move(beta), frac, lo, hi,
                                              mean, inv_sigma, stat_frac);
    }
    return std::make_unique<IntLayerNormOp>(std::move(gamma), std::move(beta),
                                            frac, lo, hi);
  }
  if (kind == "IntAttention") {
    IntAttentionParams p;
    // heads divides the model dim in the constructor: zero must not pass.
    p.heads = r.i32_in("IntAttention heads", 1, 1 << 20);
    p.frac_bits = r.i32("IntAttention frac_bits");
    p.bias_frac = r.i32("IntAttention bias_frac");
    p.stream_min = r.i64("IntAttention stream_min");
    p.stream_max = r.i64("IntAttention stream_max");
    p.logit_mul = r.i64("IntAttention logit_mul");
    p.p_qmax = r.i64("IntAttention p_qmax");
    p.ctx_mul = r.i64("IntAttention ctx_mul");
    p.ctx_min = r.i64("IntAttention ctx_min");
    p.ctx_max = r.i64("IntAttention ctx_max");
    p.out_min = r.i64("IntAttention out_min");
    p.out_max = r.i64("IntAttention out_max");
    p.wqkv = read_tensor(r, "IntAttention wqkv", v1);
    p.qkv_mul = r.vec<std::int64_t>("IntAttention qkv_mul");
    p.qkv_bias = r.vec<std::int64_t>("IntAttention qkv_bias");
    p.softmax_lut = r.vec<std::int64_t>("IntAttention softmax_lut");
    p.wproj = read_tensor(r, "IntAttention wproj", v1);
    p.proj_mul = r.vec<std::int64_t>("IntAttention proj_mul");
    p.proj_bias = r.vec<std::int64_t>("IntAttention proj_bias");
    return std::make_unique<IntAttentionOp>(std::move(p));
  }
  r.fail("op kind", "unknown op kind '" + std::string(kind) + "'");
}

}  // namespace

void save_checkpoint(const DeployModel& dm, const std::string& path) {
  // Scales must survive the text round trip exactly — optimized graphs are
  // asserted bit-identical (and audit-identical) after save/load — so
  // floats are written at max_digits10.
  const auto put_float = [](std::string& out, float v) {
    out += ' ';
    textio::put_float(out, v);
  };
  std::string out = kHeader;
  out += "\ninput";
  put_float(out, dm.input_scale);
  put_float(out, dm.input_zero);
  out += ' ';
  textio::put_line(out, {dm.input_qmin, dm.input_qmax});
  out += "output";
  put_float(out, dm.output_scale);
  out += ' ';
  textio::put_line(out, {dm.output_id()});
  out += "ops ";
  textio::put_line(out, {static_cast<std::int64_t>(dm.num_ops())});
  for (std::size_t i = 0; i < dm.num_ops(); ++i) {
    const DeployOp& op = dm.op(i);
    out += "op ";
    out += op.kind();
    out += ' ';
    out += escape_token(op.label);
    out += ' ';
    textio::put_vec(out, op.inputs);
    op.save_params(out);
    const OpAuditInfo& a = dm.audit_of(i);
    if (!a.source.empty() || a.out_scale != 0.0F || a.qmin != 0 ||
        a.qmax != 0) {
      out += "audit ";
      out += escape_token(a.source);
      put_float(out, a.out_scale);
      out += ' ';
      textio::put_line(out, {a.qmin, a.qmax});
    }
  }
  textio::write_file(path, out, "save_checkpoint");
}

DeployModel load_checkpoint(const std::string& path) {
  std::string text = textio::read_file(path, "load_checkpoint");
  // Every field the writer emits is followed by a separator and the file
  // ends in a newline; without it, the last number may have been cut.
  if (text.empty() || text.back() != '\n') {
    fail("load_checkpoint " + path + ": 'end of file' at byte " +
         std::to_string(text.size()) + ": truncated (no final newline)");
  }
  textio::Reader r(std::move(text), "load_checkpoint " + path);
  const bool v1 = r.next_is(kHeaderV1);
  r.expect(v1 ? kHeaderV1 : kHeader);

  DeployModel dm;
  r.expect("input");
  dm.input_scale = r.f32("input scale");
  dm.input_zero = r.f32("input zero");
  dm.input_qmin = r.i64("input qmin");
  dm.input_qmax = r.i64("input qmax");
  r.expect("output");
  dm.output_scale = r.f32("output scale");
  r.more_on_line();
  const std::size_t out_at = r.offset();
  const int out_id = r.i32("output id");
  r.expect("ops");
  const std::size_t n = r.count("ops");
  for (std::size_t i = 0; i < n; ++i) {
    r.expect("op");
    const std::size_t at = r.offset();
    const std::string_view kind = r.token("op kind");
    const std::string_view label = r.token("op label");
    std::vector<int> inputs = r.vec<int>("op inputs");
    int id = 0;
    try {
      auto op = load_op(kind, r, v1);
      op->inputs = std::move(inputs);
      op->label = unescape_token(label);
      id = dm.add_op(std::move(op));
    } catch (const textio::ParseError&) {
      throw;
    } catch (const Error& e) {
      // Every field parsed, but the op's constructor or the graph rejects
      // them together: report it at the op.
      std::string_view why = e.what();
      if (why.starts_with("t2c: ")) why.remove_prefix(5);
      r.fail_at(at, std::string(kind), std::string(why));
    }
    // Optional audit metadata line (absent in pre-audit checkpoints).
    if (r.next_is("audit")) {
      r.expect("audit");
      OpAuditInfo a;
      a.source = unescape_token(r.token("audit source"));
      a.out_scale = r.f32("audit out_scale");
      a.qmin = r.i64("audit qmin");
      a.qmax = r.i64("audit qmax");
      dm.set_audit(id, std::move(a));
    }
  }
  if (!r.done()) r.fail("end of file", "unexpected data after the last op");
  if (out_id < 0 || static_cast<std::size_t>(out_id) > n) {
    r.fail_at(out_at, "output id", "names no value of the graph");
  }
  dm.set_output(out_id);
  return dm;
}

}  // namespace t2c
