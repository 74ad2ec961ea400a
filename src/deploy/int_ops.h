// The integer op set of the deploy graph. Every op is pure integer
// arithmetic over int64 lanes (modelling MAC arrays, shifters and LUTs);
// the fixed-point rescaling follows Eq. 14/15 of the paper.
#pragma once

#include "deploy/deploy_model.h"
#include "tensor/conv_ops.h"
#include "tensor/int8_gemm.h"
#include "tensor/solver.h"

namespace t2c {

// Kernel selection for the GEMM-backed ops is a solver::SolverChoice
// computed by pass_select_solvers (deploy/passes.h): the pass builds a
// solver::Problem from value-range analysis and graph structure and asks
// the registry. The default-constructed choice (empty name) is the
// bit-exact int64 path; `i8` means a packed narrow kernel was chosen
// (with `mk` naming its micro-kernel), `fuse` folds the single consuming
// MulQuant into the GEMM epilogue, and `reason` records why a preferred
// solver was declined ("overflow", "layout", ...) for --plan-dump and
// the profiler.

/// How a MulQuant's per-entry parameters map onto the value layout.
enum class MqLayout {
  kPerTensor,     ///< single multiplier/bias
  kChannelNCHW,   ///< entry per channel, NCHW dim 1
  kLastDim        ///< entry per last-dim element (token layouts)
};

/// MulQuant (paper §3.2): y = clamp((m * (x + b) + 2^(f-1)) >> f, lo, hi).
/// The multiplier m is a fixed-point integer of the user-selected total
/// width — scalar for 8-bit pre-fused mode, per-channel for sub-8-bit
/// channel-wise fusion — and the bias b is a plain integer in *accumulator
/// units* (beta / (gamma* Sw Sx)), added before the rescale exactly as a
/// MAC array folds its bias register into the accumulator.
///
/// Each entry carries its own shift f (TFLite-style per-channel quantized
/// multiplier + shift): per-channel multipliers can span orders of
/// magnitude, which no shared binary point can represent at a fixed word
/// width. A single-f convenience constructor serves the uniform case.
class MulQuantOp final : public DeployOp {
 public:
  /// `bias_frac`: the bias entries are stored in 2^-bias_frac accumulator
  /// units — integral biases lose up to half an accumulator LSB, which a
  /// large multiplier (low-precision grids) amplifies into whole output
  /// levels. The datapath becomes
  ///   y = clamp((m * ((x << bias_frac) + b) + half) >> (f + bias_frac)).
  MulQuantOp(std::vector<std::int64_t> mul, std::vector<std::int64_t> bias,
             std::vector<int> frac_bits, std::int64_t out_min,
             std::int64_t out_max, MqLayout layout, int bias_frac = 0);
  /// Uniform-shift convenience constructor.
  MulQuantOp(std::vector<std::int64_t> mul, std::vector<std::int64_t> bias,
             int frac_bits, std::int64_t out_min, std::int64_t out_max,
             MqLayout layout, int bias_frac = 0);

  ITensor run(const std::vector<const ITensor*>& ins) const override;
  bool elementwise() const override { return true; }
  void run_into(const std::vector<const ITensor*>& ins,
                ITensor& out) const override;
  std::string kind() const override { return "MulQuant"; }
  void save_params(std::string& out) const override;
  obs::OpCost cost(const std::vector<const ITensor*>& ins,
                   const ITensor& out) const override;

  /// Folds an upstream exact upshift requant (y = x << k) into this op.
  /// With frac' = frac - k and bias_frac' = bias_frac + k the datapath
  /// expression on the pre-shift input x is literally the original
  /// expression on y, so outputs are bit-identical. Requires every frac
  /// entry >= k and bias_frac + k within the constructor's range.
  void absorb_upshift(int k);

  const std::vector<std::int64_t>& mul() const { return mul_; }
  const std::vector<std::int64_t>& bias() const { return bias_; }
  const std::vector<int>& frac_bits() const { return frac_; }
  int bias_frac() const { return bias_frac_; }
  std::int64_t out_min() const { return out_min_; }
  std::int64_t out_max() const { return out_max_; }
  MqLayout layout() const { return layout_; }

  /// Feeds clip counts measured by a fused GEMM epilogue into this op's
  /// saturation counters, so fusion keeps `deploy.sat.MulQuant:<label>`
  /// alive. Only call while metrics or telemetry are enabled.
  void record_sats(std::int64_t sat) const {
    sat_cache_.add("MulQuant", label, sat);
  }

 private:
  /// The rescale sweep; `out` must be pre-sized to x's shape and may
  /// alias x (same-index reads and writes only).
  void compute(const ITensor& x, ITensor& out) const;

  std::vector<std::int64_t> mul_;
  std::vector<std::int64_t> bias_;
  std::vector<int> frac_;
  int bias_frac_;
  std::int64_t out_min_, out_max_;
  MqLayout layout_;
  SatCounterCache sat_cache_;
};

/// Integer convolution (weights already quantized; bias in accumulator
/// units, i.e. pre-scaled by 1/(Sw*Sx)).
class IntConv2dOp final : public DeployOp {
 public:
  IntConv2dOp(ITensor weight, ConvSpec spec);

  ITensor run(const std::vector<const ITensor*>& ins) const override;
  std::string kind() const override { return "IntConv2d"; }
  std::string kernel() const override;
  std::shared_ptr<const PackedWeights> pack_weights() const override;
  void run_packed(const std::vector<const ITensor*>& ins,
                  const PackedWeights* packed, const MulQuantOp* fused,
                  ITensor& out) const override;
  void save_params(std::string& out) const override;
  obs::OpCost cost(const std::vector<const ITensor*>& ins,
                   const ITensor& out) const override;

  const ITensor& weight() const { return weight_; }
  const ConvSpec& spec() const { return spec_; }

  const solver::SolverChoice& solver_choice() const { return choice_; }
  void set_solver_choice(solver::SolverChoice c) { choice_ = std::move(c); }

 private:
  /// True when the chosen solver is the direct one-channel-per-group
  /// kernel (dwconv_i8*), which packs PackedDw instead of PackedA.
  bool direct() const;

  ITensor weight_;
  ConvSpec spec_;
  solver::SolverChoice choice_;
};

/// Integer fully-connected layer over [..., IN] token/feature rows.
class IntLinearOp final : public DeployOp {
 public:
  explicit IntLinearOp(ITensor weight /* [OUT, IN] */);

  ITensor run(const std::vector<const ITensor*>& ins) const override;
  std::string kind() const override { return "IntLinear"; }
  std::string kernel() const override;
  std::shared_ptr<const PackedWeights> pack_weights() const override;
  void run_packed(const std::vector<const ITensor*>& ins,
                  const PackedWeights* packed, const MulQuantOp* fused,
                  ITensor& out) const override;
  void save_params(std::string& out) const override;
  obs::OpCost cost(const std::vector<const ITensor*>& ins,
                   const ITensor& out) const override;

  const ITensor& weight() const { return weight_; }

  const solver::SolverChoice& solver_choice() const { return choice_; }
  void set_solver_choice(solver::SolverChoice c) { choice_ = std::move(c); }

 private:
  ITensor weight_;
  solver::SolverChoice choice_;
};

/// Elementwise integer add of two same-shape values, with clamp.
class IntAddOp final : public DeployOp {
 public:
  IntAddOp(std::int64_t out_min, std::int64_t out_max);

  ITensor run(const std::vector<const ITensor*>& ins) const override;
  bool elementwise() const override { return true; }
  void run_into(const std::vector<const ITensor*>& ins,
                ITensor& out) const override;
  std::string kind() const override { return "IntAdd"; }
  void save_params(std::string& out) const override;

  std::int64_t out_min() const { return out_min_; }
  std::int64_t out_max() const { return out_max_; }

 private:
  void compute(const ITensor& a, const ITensor& b, ITensor& out) const;

  std::int64_t out_min_, out_max_;
  SatCounterCache sat_cache_;
};

/// Max pooling on integers (order-preserving, no rescale needed).
class IntMaxPool2dOp final : public DeployOp {
 public:
  IntMaxPool2dOp(int kernel, int stride, int padding);

  ITensor run(const std::vector<const ITensor*>& ins) const override;
  std::string kind() const override { return "IntMaxPool2d"; }
  void save_params(std::string& out) const override;
  obs::OpCost cost(const std::vector<const ITensor*>& ins,
                   const ITensor& out) const override;

 private:
  int kernel_, stride_, padding_;
};

/// Global average pool fused with a requant: out[n,c] =
/// clamp((m * sum_hw x + b + half) >> f, lo, hi). The 1/(H*W) division is
/// folded into m at conversion time.
class IntGlobalAvgPoolOp final : public DeployOp {
 public:
  IntGlobalAvgPoolOp(std::int64_t mul, int frac_bits, std::int64_t out_min,
                     std::int64_t out_max);

  ITensor run(const std::vector<const ITensor*>& ins) const override;
  std::string kind() const override { return "IntGlobalAvgPool"; }
  void save_params(std::string& out) const override;
  obs::OpCost cost(const std::vector<const ITensor*>& ins,
                   const ITensor& out) const override;

  std::int64_t out_min() const { return out_min_; }
  std::int64_t out_max() const { return out_max_; }

 private:
  std::int64_t mul_;
  int frac_bits_;
  std::int64_t out_min_, out_max_;
  SatCounterCache sat_cache_;
};

/// NCHW -> [N, H*W, C] tokenization after the patch-embedding conv.
class TokenizeOp final : public DeployOp {
 public:
  ITensor run(const std::vector<const ITensor*>& ins) const override;
  std::string kind() const override { return "Tokenize"; }
  void save_params(std::string& out) const override;
  obs::OpCost cost(const std::vector<const ITensor*>& ins,
                   const ITensor& out) const override;
};

/// Token mean pool with requant: [N,T,D] -> [N,D] (1/T folded into mul).
class IntMeanPoolTokensOp final : public DeployOp {
 public:
  IntMeanPoolTokensOp(std::int64_t mul, int frac_bits, std::int64_t out_min,
                      std::int64_t out_max);

  ITensor run(const std::vector<const ITensor*>& ins) const override;
  std::string kind() const override { return "IntMeanPoolTokens"; }
  void save_params(std::string& out) const override;
  obs::OpCost cost(const std::vector<const ITensor*>& ins,
                   const ITensor& out) const override;

  std::int64_t out_min() const { return out_min_; }
  std::int64_t out_max() const { return out_max_; }

 private:
  std::int64_t mul_;
  int frac_bits_;
  std::int64_t out_min_, out_max_;
  SatCounterCache sat_cache_;
};

}  // namespace t2c
