// Deploy-graph optimization passes.
//
// The converter emits a correct-by-construction SSA graph; these passes
// rewrite it without changing a single output bit. The pipeline is the
// NNCF/AIMET-style "compression graph transformation" stage of the paper's
// flow, restricted to provably exact rewrites:
//
//   validate       re-checks the SSA invariants (cheap, always on)
//   fold_requants  removes requant_to-emitted scalar requants that compute
//                  an exact power-of-two upshift y = x << k: the shift is
//                  absorbed into every consuming MulQuant (frac -= k,
//                  bias_frac += k leaves the datapath expression literally
//                  unchanged), guarded by a static value-range analysis
//                  proving the requant's clamp never engaged
//   dedup          classic CSE over (kind, operands, parameters) — merges
//                  duplicated constants/LUT ops byte-for-byte equal
//   dve            dead-value elimination: drops ops unreachable from the
//                  output, renumbering ids, labels, and audit metadata
//
// Every structural rewrite goes through DeployModel::replace_uses /
// erase_ops, which remap value ids and the OpAuditInfo table together, so
// the dual-path auditor and golden-vector manifest stay aligned.
#pragma once

#include <cstdint>
#include <vector>

#include "deploy/deploy_model.h"

namespace t2c {

/// Conservative static bounds of each SSA value, indexed by value id.
/// Value 0 uses the model's input clamp range; clamped ops report their
/// clamp window; accumulator ops bound |acc| by the largest absolute row
/// sum of their weight (WeightFacts, cached at op construction) times the
/// input bound (saturating, never wrapping). Unknown kinds degrade to the
/// full int64 range.
struct ValueRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};
std::vector<ValueRange> compute_value_ranges(const DeployModel& dm);

// Individual passes. Each returns the number of rewrites it applied
// (folded requants, merged duplicates, erased ops; validate returns 0 and
// throws on a malformed graph).
std::size_t pass_validate(DeployModel& dm);
std::size_t pass_fold_requants(DeployModel& dm);
std::size_t pass_dedup(DeployModel& dm);
std::size_t pass_dve(DeployModel& dm);

/// Annotates GEMM-backed ops with their solver choice (DESIGN.md §3.12):
/// for each conv/linear the pass assembles a solver::Problem — geometry,
/// value-range bounds from compute_value_ranges (feeding the int8
/// overflow proof K · max|a| · max|w| < 2^31), and whether the single
/// consumer is a layout-compatible MulQuant offering a fusable requant
/// epilogue — and asks the solver registry. IntAttention ops get their
/// proven input bound, which routes through the registry's attention
/// list. Purely an annotation pass — the graph structure, op count, and
/// every audit artifact are untouched; the ExecutionPlan reads the
/// annotations at compile time. Returns the number of ops switched to a
/// narrow kernel.
std::size_t pass_select_solvers(DeployModel& dm);

/// The standard pipeline, called pass by pass at `opt_level`:
///   0: validate only (the graph exactly as emitted)
///   1: validate + dedup + dve
///   2: validate + fold_requants + dedup + dve + select_solvers
///      (default; solver selection runs last, on the final graph shape)
/// Returns the number of ops removed. With metrics enabled it feeds
/// deploy.pass.<pass>.changes per pass and deploy.pass.ops_removed /
/// deploy.pass.bytes_saved (static weight/LUT storage freed) from one
/// summarize() before the first pass and one after the last; with metrics
/// off it never summarizes, so no plan is compiled before the first run.
std::size_t optimize_deploy_graph(DeployModel& dm, int opt_level);

}  // namespace t2c
