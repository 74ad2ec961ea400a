#include "quant/qlayers.h"

#include <algorithm>

#include "tensor/elementwise.h"

namespace t2c {

std::unique_ptr<QBase> QConfig::make_weight_quantizer() const {
  QSpec spec;
  spec.nbits = wbits;
  spec.is_unsigned = false;
  spec.granularity = weight_granularity;
  // Scalar-clip algorithms are inherently per-tensor.
  if (weight_quantizer == "rcf" || weight_quantizer == "lsq" ||
      weight_quantizer == "dorefa" || weight_quantizer == "mse") {
    spec.granularity = QGranularity::kPerTensor;
  }
  return make_quantizer(weight_quantizer, spec);
}

std::unique_ptr<QBase> QConfig::make_act_quantizer() const {
  QSpec spec;
  spec.nbits = abits;
  spec.is_unsigned = act_unsigned;
  spec.granularity = QGranularity::kPerTensor;
  return make_quantizer(act_quantizer, spec);
}

void QLayer::set_mask(std::optional<Tensor> mask) {
  if (mask) {
    check(mask->same_shape(weight_param().value),
          "QLayer::set_mask: mask shape must match the weight");
  }
  mask_ = std::move(mask);
}

Tensor QLayer::masked_weight() const {
  const Param& w = const_cast<QLayer*>(this)->weight_param();
  if (!mask_) return w.value;
  return mul(w.value, *mask_);
}

const Tensor& QLayer::captured_input() const {
  check(!captured_input_.empty(), "QLayer: no captured input available");
  return captured_input_;
}

ITensor QLayer::integer_weight() const {
  const QLayer* self = this;
  return const_cast<QLayer*>(self)
      ->weight_quantizer()
      .quantize(masked_weight());
}

QConv2d::QConv2d(ConvSpec spec, bool bias, Rng& rng, const QConfig& qcfg,
                 bool quantize_input)
    : Conv2d(spec, bias, rng), wq_(qcfg.make_weight_quantizer()) {
  if (quantize_input) aq_ = qcfg.make_act_quantizer();
}

Tensor QConv2d::forward(const Tensor& x) {
  if (mode() == ExecMode::kIntInfer) return int_path_forward(x);
  const bool upd = is_training() || is_calibrating();
  if (capture_input_) captured_input_ = x;
  Tensor x_eff = aq_ ? aq_->forward(x, upd) : x;
  Tensor w_eff = wq_->forward(masked_weight(), upd);
  return run_forward(x_eff, w_eff);
}

Tensor QConv2d::backward(const Tensor& grad_out) {
  Tensor gx_eff, gw_eff;
  run_backward(grad_out, gx_eff, gw_eff);
  Tensor gw = wq_->bypassed() ? std::move(gw_eff) : wq_->backward(gw_eff);
  if (mask_) mul_(gw, *mask_);
  add_(weight_.grad, gw);
  if (aq_ == nullptr || aq_->bypassed()) return gx_eff;
  return aq_->backward(gx_eff);
}

Tensor QConv2d::int_path_forward(const Tensor& x) {
  check(aq_ != nullptr,
        "QConv2d int path requires an input activation quantizer");
  const ITensor xq = aq_->quantize(x);
  const ITensor wq_int = wq_->quantize(masked_weight());
  const auto [wlo, whi] =
      std::minmax_element(wq_int.data(), wq_int.data() + wq_int.numel());
  const ITensor acc = iconv2d_forward(xq, wq_int, *wlo, *whi, spec_);

  const float sx = aq_->scale()[0];
  const float zx = aq_->zero_point()[0];
  const std::int64_t oc = spec_.out_channels;
  const std::int64_t per_w = wq_int.numel() / oc;
  std::vector<std::int64_t> sum_w(static_cast<std::size_t>(oc), 0);
  for (std::int64_t i = 0; i < wq_int.numel(); ++i) {
    sum_w[static_cast<std::size_t>(i / per_w)] += wq_int[i];
  }
  const Tensor& sw = wq_->scale();
  Tensor out(acc.shape());
  const std::int64_t n = acc.size(0), hw = acc.size(2) * acc.size(3);
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t c = 0; c < oc; ++c) {
      const float s = (sw.numel() == 1 ? sw[0] : sw[c]) * sx;
      const float corr = zx * static_cast<float>(sum_w[static_cast<std::size_t>(c)]);
      const float b = has_bias_ ? bias_.value[c] : 0.0F;
      const std::int64_t base = (in * oc + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        out[base + i] = s * (static_cast<float>(acc[base + i]) - corr) + b;
      }
    }
  }
  return out;
}

void QConv2d::collect_local_params(std::vector<Param*>& out) {
  Conv2d::collect_local_params(out);
  wq_->collect_params(out);
  if (aq_) aq_->collect_params(out);
}

void QConv2d::collect_local_quantizers(std::vector<QBase*>& out) {
  out.push_back(wq_.get());
  if (aq_) out.push_back(aq_.get());
}

QLinear::QLinear(std::int64_t in_features, std::int64_t out_features,
                 bool bias, Rng& rng, const QConfig& qcfg, bool quantize_input)
    : Linear(in_features, out_features, bias, rng),
      wq_(qcfg.make_weight_quantizer()) {
  if (quantize_input) aq_ = qcfg.make_act_quantizer();
}

Tensor QLinear::forward(const Tensor& x) {
  if (mode() == ExecMode::kIntInfer) return int_path_forward(x);
  const bool upd = is_training() || is_calibrating();
  if (capture_input_) captured_input_ = x;
  Tensor x_eff = aq_ ? aq_->forward(x, upd) : x;
  Tensor w_eff = wq_->forward(masked_weight(), upd);
  return run_forward(x_eff, w_eff);
}

Tensor QLinear::backward(const Tensor& grad_out) {
  Tensor gx_eff, gw_eff;
  run_backward(grad_out, gx_eff, gw_eff);
  Tensor gw = wq_->bypassed() ? std::move(gw_eff) : wq_->backward(gw_eff);
  if (mask_) mul_(gw, *mask_);
  add_(weight_.grad, gw);
  if (aq_ == nullptr || aq_->bypassed()) return gx_eff;
  return aq_->backward(gx_eff);
}

Tensor QLinear::int_path_forward(const Tensor& x) {
  check(aq_ != nullptr,
        "QLinear int path requires an input activation quantizer");
  const ITensor xq = aq_->quantize(x);
  const ITensor wq_int = wq_->quantize(masked_weight());
  const std::int64_t rows = x.numel() / in_;
  ITensor xrows = xq.reshaped({rows, in_});
  // acc[r, oc] = sum_k x[r,k] * w[oc,k]
  Tensor out_rows({rows, out_});
  const float sx = aq_->scale()[0];
  const float zx = aq_->zero_point()[0];
  const Tensor& sw = wq_->scale();
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t* px = xrows.data() + r * in_;
    for (std::int64_t c = 0; c < out_; ++c) {
      const std::int64_t* pw = wq_int.data() + c * in_;
      std::int64_t acc = 0, sum_w = 0;
      for (std::int64_t k = 0; k < in_; ++k) {
        acc += px[k] * pw[k];
        sum_w += pw[k];
      }
      const float s = (sw.numel() == 1 ? sw[0] : sw[c]) * sx;
      const float b = has_bias_ ? bias_.value[c] : 0.0F;
      out_rows[r * out_ + c] =
          s * (static_cast<float>(acc) - zx * static_cast<float>(sum_w)) + b;
    }
  }
  Shape out_shape = x.shape();
  out_shape.back() = out_;
  out_rows.reshape(std::move(out_shape));
  return out_rows;
}

void QLinear::collect_local_params(std::vector<Param*>& out) {
  Linear::collect_local_params(out);
  wq_->collect_params(out);
  if (aq_) aq_->collect_params(out);
}

void QLinear::collect_local_quantizers(std::vector<QBase*>& out) {
  out.push_back(wq_.get());
  if (aq_) out.push_back(aq_.get());
}

namespace {
void collect_qlayers_rec(Module& m, std::vector<QLayer*>& out) {
  if (auto* q = dynamic_cast<QLayer*>(&m)) out.push_back(q);
  std::vector<Module*> kids;
  m.collect_children(kids);
  for (Module* k : kids) collect_qlayers_rec(*k, out);
}
}  // namespace

std::vector<QLayer*> collect_qlayers(Module& root) {
  std::vector<QLayer*> out;
  collect_qlayers_rec(root, out);
  return out;
}

namespace {
void collect_quantizers_rec(Module& m, std::vector<QBase*>& out) {
  m.collect_local_quantizers(out);
  std::vector<Module*> kids;
  m.collect_children(kids);
  for (Module* k : kids) collect_quantizers_rec(*k, out);
}
}  // namespace

std::vector<QBase*> collect_all_quantizers(Module& root) {
  std::vector<QBase*> out;
  collect_quantizers_rec(root, out);
  return out;
}

void freeze_quantizers(Module& root) {
  for (QBase* q : collect_all_quantizers(root)) q->freeze();
}

}  // namespace t2c
