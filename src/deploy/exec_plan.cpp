#include "deploy/exec_plan.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "deploy/int_ops.h"
#include "obs/capture.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/profile.h"
#include "obs/flight.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace t2c {

namespace {

constexpr std::int64_t kElemBytes =
    static_cast<std::int64_t>(sizeof(std::int64_t));

/// Spare buffers kept per arena. Element-wise steps that cannot run in
/// place (live forks) draw from the pool, so a handful covers a graph.
constexpr std::size_t kSpareCap = 8;

}  // namespace

std::int64_t ExecutionPlan::packed_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& pw : packed_) {
    if (pw != nullptr) bytes += pw->bytes();
  }
  return bytes;
}

std::int64_t Arena::retained_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& buf : spare) {
    bytes += static_cast<std::int64_t>(buf.capacity()) * kElemBytes;
  }
  for (const auto& t : slots) bytes += t.numel() * kElemBytes;
  return bytes;
}

ExecutionPlan ExecutionPlan::compile(const DeployModel& dm) {
  check(dm.output_id() >= 0, "ExecutionPlan: output not set");
  const int n = static_cast<int>(dm.num_ops());
  // Ops are already topologically ordered (SSA append order), so a single
  // ascending sweep leaves last_use[v] = the highest op index reading v.
  std::vector<int> last_use(static_cast<std::size_t>(n) + 1, -1);
  for (int i = 0; i < n; ++i) {
    for (int in : dm.op(static_cast<std::size_t>(i)).inputs) {
      last_use[static_cast<std::size_t>(in)] = i;
    }
  }
  last_use[static_cast<std::size_t>(dm.output_id())] = n;  // outlives the run

  ExecutionPlan p;
  std::vector<int> slot_of(static_cast<std::size_t>(n) + 1, -1);
  std::vector<int> free_slots;
  p.steps_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const DeployOp& op = dm.op(static_cast<std::size_t>(i));
    Step st;
    st.op = i;
    st.elementwise = op.elementwise();
    st.in_slots.reserve(op.inputs.size());
    for (int in : op.inputs) {
      st.in_slots.push_back(in == 0 ? -1
                                    : slot_of[static_cast<std::size_t>(in)]);
    }
    // In-place: element-wise op whose first operand is a non-input value
    // read exactly once, dying here — the output takes over its buffer.
    const int first = op.inputs.empty() ? 0 : op.inputs[0];
    if (st.elementwise && first != 0 &&
        last_use[static_cast<std::size_t>(first)] == i &&
        std::count(op.inputs.begin(), op.inputs.end(), first) == 1) {
      st.inplace = true;
      st.out_slot = slot_of[static_cast<std::size_t>(first)];
      ++p.inplace_steps_;
    } else if (!free_slots.empty()) {
      st.out_slot = free_slots.back();
      free_slots.pop_back();
    } else {
      st.out_slot = static_cast<int>(p.num_slots_++);
    }
    const int v = i + 1;
    slot_of[static_cast<std::size_t>(v)] = st.out_slot;
    // Operands dying at this op release their slots — after the op runs,
    // never before. The in-place operand's slot is the output now.
    for (int in : op.inputs) {
      if (in == 0 || last_use[static_cast<std::size_t>(in)] != i) continue;
      if (st.inplace && in == first) continue;
      const int s = slot_of[static_cast<std::size_t>(in)];
      if (std::find(st.release.begin(), st.release.end(), s) !=
          st.release.end()) {
        continue;  // value read through several operands
      }
      st.release.push_back(s);
      free_slots.push_back(s);
    }
    // A value nothing reads dies on arrival (dead code at --opt-level 0).
    if (last_use[static_cast<std::size_t>(v)] < 0) {
      st.release.push_back(st.out_slot);
      free_slots.push_back(st.out_slot);
    }
    p.steps_.push_back(std::move(st));
    // Compile time is the cold path: pack this op's static operands for
    // its narrow kernel (nullptr on the default path) and intern the
    // step's event name, so execute() neither repacks weights nor builds
    // a key string per step.
    p.packed_.push_back(op.pack_weights());
    const std::string series =
        "deploy.step." + op.kind() +
        (op.label.empty() ? "" : ":" + op.label);
    p.step_keys_.push_back(obs::flight_key(series.c_str()));
  }
  // Pair each fuse-annotated GEMM with its consuming MulQuant. The pass
  // only sets `fuse` when the accumulator has a single MulQuant consumer
  // and is not the graph output, which is exactly the in-place condition —
  // re-verified here so a stale annotation degrades to unfused, never to a
  // wrong result.
  for (int i = 0; i < n; ++i) {
    const DeployOp& op = dm.op(static_cast<std::size_t>(i));
    const auto* cv = dynamic_cast<const IntConv2dOp*>(&op);
    const auto* ln = dynamic_cast<const IntLinearOp*>(&op);
    const solver::SolverChoice* sc =
        cv != nullptr ? &cv->solver_choice()
                      : (ln != nullptr ? &ln->solver_choice() : nullptr);
    if (sc == nullptr || !sc->fuse ||
        p.packed_[static_cast<std::size_t>(i)] == nullptr) {
      continue;
    }
    const auto& cons = dm.consumers_of(i + 1);
    if (cons.size() != 1 || i + 1 == dm.output_id()) continue;
    const int c = cons[0];
    if (dynamic_cast<const MulQuantOp*>(
            &dm.op(static_cast<std::size_t>(c))) == nullptr ||
        !p.steps_[static_cast<std::size_t>(c)].inplace) {
      continue;
    }
    p.steps_[static_cast<std::size_t>(i)].fuse_mq = c;
    p.steps_[static_cast<std::size_t>(c)].fused = true;
  }
  p.output_slot_ =
      dm.output_id() == 0
          ? -1
          : slot_of[static_cast<std::size_t>(dm.output_id())];
  return p;
}

ITensor ExecutionPlan::execute(const DeployModel& dm, const ITensor& input,
                               Arena& arena,
                               DeployModel::MemoryStats& stats) const {
  arena.slots.resize(num_slots_);
  const bool met = obs::metrics_enabled();
  const bool trace = obs::trace_enabled();
  const bool prof = obs::profile_enabled();
  const bool ring = obs::event_ring_enabled();
  // PMU samples only matter when someone aggregates them, so measurement
  // is gated on the profiler being live too.
  const bool pmu = prof && obs::pmu_enabled();
  const bool cap = obs::capture_enabled();
  if (cap) {
    obs::int_taps().record(obs::kInputTapLabel, input.data(), input.numel(),
                           input.shape());
  }
  stats = DeployModel::MemoryStats{};
  stats.plan_slots = num_slots_;
  stats.inplace_steps = inplace_steps_;
  stats.runs = 1;
  // naive = what the keep-everything executor held live at once: an input
  // copy plus every intermediate, none released before the end.
  stats.naive_bytes = input.numel() * kElemBytes;
  std::int64_t live = 0;
  // Hoisted out of the loop: the operand list reuses its capacity across
  // steps, keeping the disabled-observability path free of per-step heap
  // traffic from the executor itself.
  std::vector<const ITensor*> ins;
  for (std::size_t si = 0; si < steps_.size(); ++si) {
    const Step& st = steps_[si];
    const DeployOp& op = dm.op(static_cast<std::size_t>(st.op));
    ins.clear();
    ins.reserve(st.in_slots.size());
    for (int s : st.in_slots) {
      ins.push_back(s < 0 ? &input
                          : &arena.slots[static_cast<std::size_t>(s)]);
    }
    ITensor out;
    if (st.elementwise) {
      if (st.inplace) {
        out = std::move(arena.slots[static_cast<std::size_t>(st.out_slot)]);
        ins[0] = &out;  // first operand and output share the buffer
      } else if (!arena.spare.empty()) {
        std::vector<std::int64_t> buf = std::move(arena.spare.back());
        arena.spare.pop_back();
        buf.clear();
        out = ITensor::from({0}, std::move(buf));
      }
    }
    // Kernel dispatch. Under artifact capture the fused pair runs unfused
    // (packed GEMM with a raw-accumulator epilogue + the MulQuant step),
    // so every tapped intermediate is byte-identical to the reference
    // path; outside capture the epilogue is fused and the MulQuant step is
    // skipped — its in-place buffer dance above already moved the fused
    // result into `out`.
    const PackedWeights* pw =
        packed_[static_cast<std::size_t>(st.op)].get();
    const MulQuantOp* fmq =
        st.fuse_mq >= 0 && !cap
            ? dynamic_cast<const MulQuantOp*>(
                  &dm.op(static_cast<std::size_t>(st.fuse_mq)))
            : nullptr;
    const bool skip = st.fused && !cap;
    const auto run_step = [&] {
      if (skip) return;
      if (pw != nullptr) {
        op.run_packed(ins, pw, fmq, out);
      } else {
        op.run_into(ins, out);
      }
    };
    if (met || trace || prof || ring) {
      const std::int64_t ts = trace ? obs::tracer().now_us() : 0;
      // Step bracket (DESIGN.md §3.9): this thread's counters plus the
      // worker accumulator before and after. The step's sample is the
      // main-thread delta (covers inline work and part 0 of every pooled
      // region) plus whatever the pool workers deposited meanwhile.
      obs::PmuCounts pmu_self0, pmu_acc0;
      if (pmu) {
        obs::pmu_worker_acc().snapshot(pmu_acc0);
        obs::thread_pmu().read(pmu_self0);
      }
      Stopwatch sw;
      run_step();
      const double ms = sw.millis();
      obs::PmuSample sample;
      if (pmu) {
        obs::PmuCounts pmu_self1, pmu_acc1;
        obs::thread_pmu().read(pmu_self1);
        obs::pmu_worker_acc().snapshot(pmu_acc1);
        sample = obs::pmu_delta(pmu_self0, pmu_self1);
        sample.accumulate(obs::pmu_delta(pmu_acc0, pmu_acc1));
      }
      if (ring) {
        // One fixed-size event into this thread's ring, keyed at compile
        // time: the telemetry hub and the flight recorder both read it.
        obs::flight_record(obs::FlightKind::kStep, step_keys_[si], ms);
      }
      // The legacy pillars key by string; ring-only runs skip the
      // concatenation and stay allocation-free per step.
      std::string key;
      if (met || trace || prof) {
        key = op.kind() + (op.label.empty() ? "" : ":" + op.label);
      }
      if (met) {
        obs::metrics().histogram("deploy.op_ms." + key).observe(ms);
      }
      if (prof) {
        // cost() is shape-derived, so the aggregated totals are identical
        // at any thread count even though the timings are not. A skipped
        // (fused-away) step reports zero cost — its work is charged to the
        // producer's fused kernel.
        const obs::OpCost c = skip ? obs::OpCost{} : op.cost(ins, out);
        // The profiler tag is the solver name chosen at compile time
        // (kernel() reports it for GEMM-backed ops), so plan dump, bench
        // and profile all speak the registry's vocabulary.
        const std::string kstr = skip ? "fused" : op.kernel();
        obs::profiler().record_step(key, ms, c, pmu ? &sample : nullptr,
                                    kstr);
        if (met) {
          obs::metrics().counter("profile.flops." + op.kind()).add(c.flops);
          obs::metrics().counter("profile.macs." + op.kind()).add(c.macs);
          obs::metrics()
              .counter("profile.bytes." + op.kind())
              .add(c.bytes_read + c.bytes_written);
        }
      }
      if (pmu) {
        if (met) {
          obs::metrics().counter("pmu.cpu_ns").add(sample.cpu_ns);
          if (sample.hw) {
            obs::metrics().counter("pmu.cycles").add(sample.cycles);
            obs::metrics().counter("pmu.instructions").add(sample.instructions);
            obs::metrics().counter("pmu.cache_refs").add(sample.cache_refs);
            obs::metrics().counter("pmu.cache_misses").add(sample.cache_misses);
            obs::metrics()
                .counter("pmu.branch_misses")
                .add(sample.branch_misses);
          }
        }
        if (trace && sample.hw) {
          // Per-step counter tracks: IPC and cache-miss rate over the run
          // timeline, next to the op spans they describe.
          if (sample.cycles > 0) {
            obs::tracer().counter("pmu.ipc", "pmu",
                                  static_cast<double>(sample.instructions) /
                                      static_cast<double>(sample.cycles));
          }
          if (sample.cache_refs > 0) {
            obs::tracer().counter(
                "pmu.cache_miss_rate", "pmu",
                static_cast<double>(sample.cache_misses) /
                    static_cast<double>(sample.cache_refs));
          }
        }
      }
      if (trace) {
        obs::TraceRecorder::Event e;
        e.name = key;
        e.cat = "deploy";
        e.ts_us = ts;
        e.dur_us = obs::tracer().now_us() - ts;
        e.tid = obs::trace_tid();
        e.req = obs::current_request();
        obs::tracer().record(std::move(e));
      }
    } else {
      run_step();
    }
    if (cap) {
      obs::int_taps().record(
          obs::op_tap_key(static_cast<std::size_t>(st.op), op.label),
          out.data(), out.numel(), out.shape());
    }
    const std::int64_t out_bytes = out.numel() * kElemBytes;
    stats.naive_bytes += out_bytes;
    if (!st.inplace) live += out_bytes;  // in place: buffer already counted
    stats.peak_bytes = std::max(stats.peak_bytes, live);
    arena.slots[static_cast<std::size_t>(st.out_slot)] = std::move(out);
    for (int s : st.release) {
      ITensor& dead = arena.slots[static_cast<std::size_t>(s)];
      live -= dead.numel() * kElemBytes;
      if (arena.spare.size() < kSpareCap && dead.numel() > 0) {
        arena.spare.push_back(std::move(dead.vec()));
      }
      dead = ITensor();
    }
    if (trace) {
      // Arena occupancy after this step — a counter track charting the
      // liveness plan's high-water profile over the run — plus, when the
      // saturation counters are live, cumulative clipped values over time.
      obs::tracer().counter("deploy.arena.live_bytes", "deploy",
                            static_cast<double>(live));
      if (met) {
        obs::tracer().counter(
            "deploy.sat.total", "deploy",
            static_cast<double>(
                obs::metrics().counter("deploy.sat.total").value()));
      }
    }
  }
  ITensor result =
      output_slot_ < 0
          ? input
          : std::move(arena.slots[static_cast<std::size_t>(output_slot_)]);
  stats.arena_bytes = arena.retained_bytes();
  return result;
}

std::string ExecutionPlan::render(const DeployModel& dm) const {
  std::ostringstream os;
  os << "plan: " << steps_.size() << " steps, " << num_slots_ << " slots, "
     << inplace_steps_ << " in-place\n";
  for (const Step& st : steps_) {
    const DeployOp& op = dm.op(static_cast<std::size_t>(st.op));
    os << "  " << std::setw(3) << st.op << "  " << std::left << std::setw(18)
       << op.kind() << " " << std::setw(34)
       << (op.label.empty() ? "-" : op.label) << std::right << " (";
    for (std::size_t k = 0; k < op.inputs.size(); ++k) {
      if (k) os << " ";
      os << "v" << op.inputs[k];
    }
    os << ") -> s" << st.out_slot;
    if (st.inplace) os << " inplace";
    // Kernel selection (and fallback reason) chosen at compile time;
    // "fused" marks a MulQuant folded into its producer's epilogue.
    const std::string kern = st.fused ? "fused" : op.kernel();
    if (!kern.empty()) os << " kernel=" << kern;
    if (!st.release.empty()) {
      os << " free[";
      for (std::size_t k = 0; k < st.release.size(); ++k) {
        if (k) os << " ";
        os << "s" << st.release[k];
      }
      os << "]";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace t2c
