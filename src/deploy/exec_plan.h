// Liveness-planned execution of the deploy graph.
//
// ExecutionPlan::compile walks the SSA op list once, computes each value's
// last use, and assigns every op's output to a reusable arena slot: a slot
// is returned to the free list the moment its value dies, so the number of
// slots is the graph's liveness width (2-3 for a chain, +1 per live
// residual fork) instead of one buffer per op. Element-wise ops whose
// first input dies at them run *in place* on that input's buffer — no
// allocation at all. Buffers released mid-run are parked in the arena's
// spare pool, still holding their values, and re-issued to later steps
// and to the next run(): each step whose kernel writes every output
// element (element-wise and packed int8 ops, attention) takes the
// smallest parked buffer that held at least as many elements as its
// output did last run and truncates it, so steady-state serving neither
// allocates nor zero-fills those outputs.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "deploy/deploy_model.h"
#include "obs/profile.h"
#include "tensor/tensor.h"

namespace t2c {

/// Per-run buffer store. Slots hold the currently-live values; spare holds
/// released tensors awaiting reuse (contents stale); last_numel is each
/// step's output size in the previous run, the size it asks the pool
/// for. Owned by one run at a time (the model keeps an idle pool and
/// hands one arena to each concurrent run).
struct Arena {
  std::vector<ITensor> slots;
  std::vector<ITensor> spare;
  std::vector<std::int64_t> last_numel;

  /// Heap bytes the arena retains between runs (spare capacities).
  std::int64_t retained_bytes() const;
};

class ExecutionPlan {
 public:
  /// One op execution. Step k runs op `op` and stores value op+1 into
  /// `out_slot`; `release` lists the slots whose values die here (freed
  /// after the op runs, never before — inputs must outlive the op).
  struct Step {
    int op = 0;
    int out_slot = 0;
    bool inplace = false;   ///< output reuses the (dead) first input's slot
    bool recycles = false;  ///< output may take a parked buffer
    /// Op index of the MulQuant fused into this GEMM step's epilogue, or
    /// -1. Fusion is kernel-level only: the graph keeps both ops, and
    /// under artifact capture the pair runs unfused so every tapped
    /// intermediate (the raw accumulator included) stays byte-identical.
    int fuse_mq = -1;
    /// This MulQuant step's work happens in its producer's epilogue; the
    /// step is skipped at execute (outside capture) with zero cost.
    bool fused = false;
    std::vector<int> in_slots;  ///< per operand; -1 = the network input
    std::vector<int> release;
  };

  /// Compiles the graph (output must be set). Throws on malformed graphs.
  static ExecutionPlan compile(const DeployModel& dm);

  /// Executes the plan. `stats` receives this run's memory numbers.
  ITensor execute(const DeployModel& dm, const ITensor& input, Arena& arena,
                  DeployModel::MemoryStats& stats) const;

  const std::vector<Step>& steps() const { return steps_; }
  std::size_t num_slots() const { return num_slots_; }
  std::size_t inplace_steps() const { return inplace_steps_; }

  /// Prepacked static operands, parallel to steps_ (nullptr for ops on the
  /// default path). Packed once at compile; the plan owns the cache so
  /// steady-state runs never repack weights.
  const std::vector<std::shared_ptr<const PackedWeights>>& packed() const {
    return packed_;
  }
  /// Heap bytes held by the packed-weight cache.
  std::int64_t packed_bytes() const;

  /// Deterministic human-readable rendering (t2c_cli --plan-dump and the
  /// golden-text plan tests): one line per step with the op, its operand
  /// values, the arena slot, and the slots freed.
  std::string render(const DeployModel& dm) const;

 private:
  std::vector<Step> steps_;
  std::vector<std::shared_ptr<const PackedWeights>> packed_;
  /// Step identities (obs/profile.h), parallel to steps_: the
  /// `<kind>[:<label>]` name, kernel tag and event-ring key, interned once
  /// at compile time so the execute loop records each step without
  /// building a string (zero allocations per step).
  std::vector<obs::StepKey> step_keys_;
  std::size_t num_slots_ = 0;
  std::size_t inplace_steps_ = 0;
  int output_slot_ = -1;  ///< slot of the output value; -1 = the input
};

/// Plan cache, idle-arena pool, and aggregated memory stats of one
/// DeployModel. Heap-allocated behind the model (holds a mutex).
struct ExecState {
  std::mutex mu;
  std::unique_ptr<ExecutionPlan> plan;       ///< compiled lazily under mu
  std::vector<std::unique_ptr<Arena>> idle;  ///< arenas awaiting the next run
  DeployModel::MemoryStats stats;            ///< max-merged across runs
};

}  // namespace t2c
