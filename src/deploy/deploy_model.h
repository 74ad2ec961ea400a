// The deployable integer-only graph (paper Fig. 3(c), 4(c), 5).
//
// A DeployModel is a tiny SSA program over ITensor values: value 0 is the
// quantized network input; each op consumes previously-produced values and
// appends one output. No floating point appears anywhere inside run_int();
// the float boundary exists only at the input-quantize / output-dequantize
// edges (run()). The xport module serializes exactly this structure.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "tensor/tensor.h"
#include "util/fixed_point.h"

namespace t2c {

/// Cached handles for one op's saturation counters
/// (`deploy.sat.<kind>[:<label>]` + the aggregate `deploy.sat.total`).
/// Resolving a counter costs a string build plus a registry map lookup, so
/// ops resolve once and reuse the handles on every run(). Resolution is
/// lazy — labels are assigned by DeployModel::add_op after construction —
/// and tagged with the registry generation: MetricsRegistry::reset() bumps
/// the generation (and disables collection), so a stale handle is
/// re-resolved instead of dereferenced. add() must only be called while
/// metrics or telemetry are enabled (ops count saturation only then); each
/// sink is gated on its own flag inside. The event ring gets the same
/// counts as one kSaturation event on the `deploy.sat.<kind>[:<label>]`
/// key, attributed to the current request (ring keys are interned once and
/// never invalidated, so that handle needs no generation tag).
class SatCounterCache {
 public:
  void add(const char* kind, const std::string& label, std::int64_t sat) const;

 private:
  // ~0 never matches a real generation, forcing the first resolve.
  mutable std::atomic<std::uint64_t> gen_{~std::uint64_t{0}};
  mutable std::atomic<obs::Counter*> op_{nullptr};
  mutable std::atomic<obs::Counter*> total_{nullptr};
  // Event-ring key (obs/flight.h); ~0 = unresolved.
  mutable std::atomic<std::uint32_t> key_{~std::uint32_t{0}};
};

/// Largest |v| over v in [lo, hi]; |INT64_MIN| counts as INT64_MAX.
std::int64_t abs_bound(std::int64_t lo, std::int64_t hi);

/// Static facts of one int64 weight tensor whose leading dim is the output
/// channel/feature, taken by one saturating scan when its op is built (the
/// weights never change afterwards). Range analysis, solver selection and
/// summarize() (storage width = xport's required_word_bits(lo, hi)) read
/// these instead of rescanning the weights.
struct WeightFacts {
  /// Largest Σ|w| over the leading-dim rows, saturating at INT64_MAX:
  /// the worst-case accumulator magnitude per unit of input bound.
  std::int64_t abs_row_sum = 0;
  std::int64_t lo = 0;  ///< smallest element (0 for an empty tensor)
  std::int64_t hi = 0;  ///< largest element (0 for an empty tensor)

  static WeightFacts scan(const ITensor& w);
  std::int64_t abs_max() const { return abs_bound(lo, hi); }
};

struct PackedWeights;
class MulQuantOp;

class DeployOp {
 public:
  DeployOp() = default;
  DeployOp(const DeployOp&) = delete;
  DeployOp& operator=(const DeployOp&) = delete;
  virtual ~DeployOp() = default;

  virtual ITensor run(const std::vector<const ITensor*>& ins) const = 0;
  virtual std::string kind() const = 0;

  /// Kernel the op would select under the current plan annotations: the
  /// solver name chosen by the registry ("gemm_i8_fused", "attn_i16", ...)
  /// or "gemm_i64(<fallback reason>)" when every narrow solver declined —
  /// surfaced in the profiler's kernel column and --plan-dump. It names a
  /// strategy, not an ISA: the rung its micro-kernel ran at is the run's
  /// build_info.isa. Empty for ops with a single implementation.
  virtual std::string kernel() const { return {}; }

  /// Prepacked static operands for the op's narrow kernel (tensor/
  /// int8_gemm.h), or nullptr when the op runs the default path. Called
  /// once per plan compile; the ExecutionPlan caches the result so
  /// steady-state runs never repack weights.
  virtual std::shared_ptr<const PackedWeights> pack_weights() const {
    return nullptr;
  }

  /// Runs the op on its packed operands, optionally folding the consuming
  /// MulQuant `fused` into the kernel epilogue (fused != nullptr only when
  /// the planner proved the pairing safe). The default ignores both and
  /// falls back to run_into.
  virtual void run_packed(const std::vector<const ITensor*>& ins,
                          const PackedWeights* packed,
                          const MulQuantOp* fused, ITensor& out) const {
    (void)packed;
    (void)fused;
    run_into(ins, out);
  }

  /// True for pure element-wise ops: the output has ins[0]'s shape, every
  /// output element depends only on the same-index input element(s), and
  /// run_into() recycles storage. Only such ops may execute in place on
  /// their first input's buffer (the planner checks the value is dead).
  virtual bool elementwise() const { return false; }

  /// True when run_into() — run_packed() when `packed` — writes every
  /// element of `out` into the storage it was handed (recycle_tensor), so
  /// the executor may hand it a parked buffer with stale contents.
  /// Element-wise ops do; the packed int8 kernels override this.
  virtual bool recycles_output(bool packed) const {
    (void)packed;
    return elementwise();
  }

  /// Runs the op writing into `out`, reusing out's heap storage when the
  /// op supports it. `out` may alias *ins[0] (in-place execution) only
  /// when elementwise() is true. The default discards out's storage and
  /// falls back to run().
  virtual void run_into(const std::vector<const ITensor*>& ins,
                        ITensor& out) const;

  /// Appends the op's parameters as whitespace-separated tokens (through
  /// util/textio.h) — the payload of the integer checkpoint
  /// (xport/checkpoint.h). Each op kind has a matching loader there.
  virtual void save_params(std::string& out) const = 0;

  /// Shape-derived work/traffic of one execution, consumed by the
  /// profiler (obs/profile.h; DESIGN.md §3.8 has the per-kind accounting
  /// rules). Implementations must derive the numbers from operand/output
  /// shapes and static parameters only — never from tensor data, timings,
  /// or the thread partition — so profiles are bit-identical across
  /// --threads settings. The default models an element-wise op: one flop
  /// per output element, bytes = every operand read + the output written.
  virtual obs::OpCost cost(const std::vector<const ITensor*>& ins,
                           const ITensor& out) const;

  std::vector<int> inputs;  ///< value ids consumed (most ops: one)
  std::string label;        ///< provenance ("stage1.block0.conv1", ...)
};

/// run_into() helper: gives `out` the target shape without zero-filling
/// reused storage, so the caller must write every element. When out
/// already has that shape (in-place execution aliasing the input) the
/// data is left untouched; when it holds at least as many elements it is
/// truncated; a smaller one is replaced by a fresh zero-filled tensor —
/// never grown, which would copy its stale contents.
void recycle_tensor(ITensor& out, const Shape& shape);

/// Converter-attached metadata mapping one deploy op's integer output back
/// onto the fake-quant training path — the label map the dual-path
/// divergence auditor (src/audit/) aligns the two paths with.
struct OpAuditInfo {
  /// Label of the float-path module whose output this op's dequantized
  /// output mirrors; empty for internal ops (raw accumulators, requants)
  /// that have no single float counterpart.
  std::string source;
  /// Scalar dequantization scale of this op's output grid; 0 when the
  /// output carries per-channel scales (raw conv/linear accumulators) and
  /// cannot be dequantized with one number.
  float out_scale = 0.0F;
  /// Output clamp range; (0, 0) when unknown or pure accumulator headroom.
  std::int64_t qmin = 0;
  std::int64_t qmax = 0;
};

class ExecutionPlan;
struct ExecState;

class DeployModel {
 public:
  DeployModel();
  ~DeployModel();
  DeployModel(DeployModel&&) noexcept;
  DeployModel& operator=(DeployModel&&) noexcept;
  DeployModel(const DeployModel&) = delete;
  DeployModel& operator=(const DeployModel&) = delete;

  /// Appends an op; returns the value id its output occupies. Rejects
  /// out-of-range / forward-referencing input ids with a diagnostic
  /// naming the offending op.
  int add_op(std::unique_ptr<DeployOp> op);

  void set_output(int value_id);
  int output_id() const { return output_id_; }

  std::size_t num_ops() const { return ops_.size(); }
  const DeployOp& op(std::size_t i) const;
  DeployOp& mutable_op(std::size_t i);

  // ---- graph view ----
  // Values are the SSA names: value 0 is the network input, op i produces
  // value i + 1. The consumer lists are maintained by add_op and rebuilt
  // by the rewrite helpers, so passes can walk uses without re-scanning.

  /// Number of SSA values (num_ops() + 1; value 0 is the input).
  int num_values() const { return static_cast<int>(ops_.size()) + 1; }
  /// Index of the op producing `value_id`, or -1 for the input value 0.
  int producer_of(int value_id) const;
  /// Op indices consuming `value_id`, ascending; an op consuming the value
  /// through several operands appears once per use.
  const std::vector<int>& consumers_of(int value_id) const;

  // ---- pass support (see deploy/passes.h) ----

  /// Rewrites every use of value `from` — op operands and the graph
  /// output — to value `to`. `to` must be produced no later than `from`
  /// so SSA dominance is preserved.
  void replace_uses(int from, int to);

  /// Removes the ops whose `keep` entry is false (keep.size() ==
  /// num_ops()). Removed ops must be use-free; remaining value ids,
  /// operands, the output id, and audit metadata are renumbered in place.
  /// Returns the number of ops removed.
  std::size_t erase_ops(const std::vector<bool>& keep);

  /// Attaches audit metadata to the op producing `value_id` (the id
  /// add_op returned). Converter-only; defaults to an empty OpAuditInfo.
  void set_audit(int value_id, OpAuditInfo info);
  /// Audit metadata of op `i` (op index, not value id).
  const OpAuditInfo& audit_of(std::size_t i) const;

  /// Drops the cached execution plan (and pooled arenas/stats). Graph
  /// mutations call this internally; passes that change *op-level* state
  /// the plan bakes in (kernel annotations, prepacked weights) without
  /// touching the graph must call it explicitly, or a plan compiled
  /// before the pass (e.g. by summarize()) would keep serving stale kernel
  /// selections.
  void invalidate_plan();

  // Input/output float boundaries.
  float input_scale = 1.0F;
  float input_zero = 0.0F;
  std::int64_t input_qmin = -127;
  std::int64_t input_qmax = 127;
  float output_scale = 1.0F;

  /// Quantizes a float input with the input spec.
  ITensor quantize_input(const Tensor& x) const;

  /// Integer-only execution from an already-quantized input. Runs the
  /// liveness-planned arena executor (deploy/exec_plan.h): the plan is
  /// compiled lazily on first use and cached until the graph mutates;
  /// arena buffers are recycled across calls. Thread-safe against
  /// concurrent run_int/run calls (each grabs its own arena).
  ITensor run_int(const ITensor& input) const;

  /// The cached execution plan (compiled on demand; output must be set).
  const ExecutionPlan& plan() const;

  /// Memory-planning stats, aggregated (max per field) over every run
  /// since the last graph mutation. naive_bytes is what the retired
  /// keep-everything executor would have held live (input copy + every
  /// intermediate); peak_bytes is the liveness high-water mark of the
  /// arena executor; arena_bytes is the heap the arena retains between
  /// runs for buffer recycling.
  struct MemoryStats {
    std::int64_t naive_bytes = 0;
    std::int64_t peak_bytes = 0;
    std::int64_t arena_bytes = 0;
    std::size_t plan_slots = 0;     ///< arena slots the plan needs
    std::size_t inplace_steps = 0;  ///< steps run in place on a dead input
    std::size_t runs = 0;
  };
  MemoryStats memory_stats() const;

  /// Full pipeline: quantize -> integer graph -> dequantize logits.
  Tensor run(const Tensor& x) const;

  /// Classification helper over a [N,C,H,W] batch: top-1 accuracy (%).
  double evaluate(const Tensor& images,
                  const std::vector<std::int64_t>& labels,
                  std::int64_t batch_size = 32) const;

  /// Static graph statistics (op mix, parameter storage) — the numbers a
  /// hardware designer sizes memories from. Weight storage comes from each
  /// op's WeightFacts; with no run yet, the plan is compiled for its width.
  struct Summary {
    std::size_t total_ops = 0;
    std::vector<std::pair<std::string, std::size_t>> op_counts;  ///< by kind
    std::int64_t weight_elements = 0;  ///< conv/linear/attention weights
    std::int64_t weight_storage_bits = 0;  ///< at each tensor's minimal width
    std::int64_t lut_entries = 0;
    MemoryStats mem;  ///< plan width + measured bytes (zero before any run)
  };
  Summary summarize() const;

  /// Renders summarize() as human-readable text.
  std::string summary_text() const;

 private:
  void rebuild_consumers();

  std::vector<std::unique_ptr<DeployOp>> ops_;
  std::vector<OpAuditInfo> audit_;  ///< parallel to ops_
  std::vector<std::vector<int>> consumers_;  ///< per value id
  int output_id_ = -1;
  /// Plan cache + arena pool + aggregated stats; behind a pointer so the
  /// model stays movable (the state holds a mutex) and the header stays
  /// free of exec_plan.h.
  std::unique_ptr<ExecState> exec_;
};

}  // namespace t2c
