// Integer ViT deploy ops: LUT-based nonlinearities (paper §3.2.2), integer
// LayerNorm with instant or running statistics, and the composite integer
// multi-head attention block of Fig. 4(b/c).
#pragma once

#include "deploy/deploy_model.h"
#include "tensor/int8_gemm.h"
#include "tensor/solver.h"

namespace t2c {

/// exp LUT for the integer softmax: entry[i] = round(exp(-i * in_scale) *
/// 2^prob_bits). Indexed by (rowmax - q), saturating at the last entry.
std::vector<std::int64_t> build_exp_lut(float in_scale, int lut_size,
                                        int prob_bits);

/// GELU LUT: maps an input integer grid [in_min, in_max] (scale in_scale)
/// to output integers (scale out_scale), with `lut_size` entries (full
/// resolution when lut_size == range). Returns the table and the index step.
std::vector<std::int64_t> build_gelu_lut(float in_scale, std::int64_t in_min,
                                         std::int64_t in_max, float out_scale,
                                         std::int64_t out_min,
                                         std::int64_t out_max, int lut_size,
                                         std::int64_t& index_step);

/// Integer softmax over the last dim via the exp LUT; outputs unsigned
/// probabilities in [0, p_qmax] with scale 1/p_qmax.
class LutSoftmaxOp final : public DeployOp {
 public:
  LutSoftmaxOp(std::vector<std::int64_t> lut, std::int64_t p_qmax);

  ITensor run(const std::vector<const ITensor*>& ins) const override;
  std::string kind() const override { return "LutSoftmax"; }
  void save_params(std::string& out) const override;
  obs::OpCost cost(const std::vector<const ITensor*>& ins,
                   const ITensor& out) const override;

  const std::vector<std::int64_t>& lut() const { return lut_; }
  std::int64_t p_qmax() const { return p_qmax_; }

 private:
  std::vector<std::int64_t> lut_;
  std::int64_t p_qmax_;
};

/// Integer GELU via direct table lookup.
class LutGeluOp final : public DeployOp {
 public:
  LutGeluOp(std::vector<std::int64_t> lut, std::int64_t in_min,
            std::int64_t in_max, std::int64_t index_step);

  ITensor run(const std::vector<const ITensor*>& ins) const override;
  bool elementwise() const override { return true; }
  void run_into(const std::vector<const ITensor*>& ins,
                ITensor& out) const override;
  std::string kind() const override { return "LutGelu"; }
  void save_params(std::string& out) const override;
  obs::OpCost cost(const std::vector<const ITensor*>& ins,
                   const ITensor& out) const override;

  const std::vector<std::int64_t>& lut() const { return lut_; }

 private:
  void compute(const ITensor& x, ITensor& out) const;

  std::vector<std::int64_t> lut_;
  std::int64_t in_min_, in_max_, index_step_;
};

/// Integer LayerNorm over the last dim. xhat is scale-free (computed from
/// raw integers), then y_q = (G*xhat_f + B<<f) >> 2f with G = fx(gamma /
/// s_out) and B = fx(beta / s_out).
class IntLayerNormOp final : public DeployOp {
 public:
  /// Instant-statistics variant.
  IntLayerNormOp(std::vector<std::int64_t> gamma_fx,
                 std::vector<std::int64_t> beta_fx, int frac_bits,
                 std::int64_t out_min, std::int64_t out_max);

  /// Running-statistics variant: mean_int = round(mu / s_in),
  /// inv_sigma_fx = round((s_in / sigma) << stat_frac).
  IntLayerNormOp(std::vector<std::int64_t> gamma_fx,
                 std::vector<std::int64_t> beta_fx, int frac_bits,
                 std::int64_t out_min, std::int64_t out_max,
                 std::int64_t mean_int, std::int64_t inv_sigma_fx,
                 int stat_frac);

  ITensor run(const std::vector<const ITensor*>& ins) const override;
  std::string kind() const override { return "IntLayerNorm"; }
  bool running_stats() const { return running_; }
  std::int64_t out_min() const { return out_min_; }
  std::int64_t out_max() const { return out_max_; }
  void save_params(std::string& out) const override;
  obs::OpCost cost(const std::vector<const ITensor*>& ins,
                   const ITensor& out) const override;

 private:
  std::vector<std::int64_t> gamma_fx_, beta_fx_;
  int frac_bits_;
  std::int64_t out_min_, out_max_;
  bool running_ = false;
  std::int64_t mean_int_ = 0;
  std::int64_t inv_sigma_fx_ = 0;
  int stat_frac_ = 0;
};

/// Composite integer multi-head attention (Fig. 4(b)): integer qkv
/// projection, per-stream requant, integer q*k^T, LUT softmax, integer
/// p*v, context requant, integer output projection, output requant.
struct IntAttentionParams {
  std::int64_t heads = 1;
  ITensor wqkv;  ///< [3D, D]
  std::vector<std::int64_t> qkv_mul, qkv_bias;  ///< 3D entries, last-dim
  int frac_bits = 16;
  /// Biases (qkv_bias / proj_bias) are stored in 2^-bias_frac accumulator
  /// units; see MulQuantOp for the rationale.
  int bias_frac = 8;
  std::int64_t stream_min = -127, stream_max = 127;
  std::vector<std::int64_t> softmax_lut;
  /// Fixed-point multiplier (frac_bits) mapping raw logit differences
  /// (rowmax - acc) onto the LUT index grid; without it the accumulator
  /// LSB would be far finer than the LUT step and the table would cover
  /// only a sliver of the exp range.
  std::int64_t logit_mul = 1;
  std::int64_t p_qmax = 255;
  std::int64_t ctx_mul = 0;
  std::int64_t ctx_min = -127, ctx_max = 127;
  ITensor wproj;  ///< [D, D]
  std::vector<std::int64_t> proj_mul, proj_bias;  ///< D entries, last-dim
  std::int64_t out_min = -127, out_max = 127;
};

class IntAttentionOp final : public DeployOp {
 public:
  explicit IntAttentionOp(IntAttentionParams params);

  ITensor run(const std::vector<const ITensor*>& ins) const override;
  std::string kind() const override { return "IntAttention"; }
  std::string kernel() const override;
  void save_params(std::string& out) const override;
  obs::OpCost cost(const std::vector<const ITensor*>& ins,
                   const ITensor& out) const override;

  const IntAttentionParams& params() const { return p_; }

  /// Proven bound on |input| from value-range analysis, set by
  /// pass_select_solvers; 0 (the default) keeps the int64 path. The bound
  /// feeds a solver::Problem (op=kAttnInt) and the registry's attention
  /// list decides between attn_i16 and attn_i64: with a bound proven,
  /// every matmul stage whose int32 accumulation provably cannot overflow
  /// runs on int16 streams through the prepacked panels (bit-identical —
  /// all integer arithmetic is exact).
  void set_input_bound(std::int64_t bound);
  std::int64_t input_bound() const { return input_bound_; }

  const solver::SolverChoice& solver_choice() const { return choice_; }

 private:
  /// Bound-independent eligibility terms of the narrow path (packed
  /// panels exist, stream/probability/context grids fit the int16
  /// kernels). Feeds Problem.aux_ok; the input-bound-dependent overflow
  /// proof lives in the registry's attn_i16 applicability gate, and the
  /// token-count-dependent p*v bound is re-checked per run.
  bool static_i16_ok() const;
  ITensor run_i16(const ITensor& x) const;

  IntAttentionParams p_;
  solver::SolverChoice choice_;
  std::int64_t input_bound_ = 0;
  std::int64_t wq_max_ = 0, wp_max_ = 0;  ///< max |w| of wqkv / wproj
  /// Weight panels packed once at construction when the weights fit int16
  /// (the op owns its static operands, unlike the exec-plan-cached
  /// conv/linear packs).
  std::shared_ptr<const i8::PackedB> pbqkv_, pbproj_;
};

}  // namespace t2c
