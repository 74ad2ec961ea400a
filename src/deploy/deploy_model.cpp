#include "deploy/deploy_model.h"

#include <cmath>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>

#include "core/parallel.h"
#include "deploy/exec_plan.h"
#include "deploy/int_ops.h"
#include "deploy/vit_ops.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/reduce.h"
#include "util/check.h"
#include "xport/writers.h"

namespace t2c {

void SatCounterCache::add(const char* kind, const std::string& label,
                          std::int64_t sat) const {
  if (obs::metrics_enabled()) {
    const std::uint64_t gen = obs::metrics().generation();
    if (gen_.load(std::memory_order_acquire) != gen) {
      std::string key = std::string("deploy.sat.") + kind;
      if (!label.empty()) key += ":" + label;
      // Counters are created even at zero so an instrumented run always
      // exposes them. Publish the handles before the generation tag; a
      // racing reader that sees the new tag therefore sees the new handles
      // (both would resolve to the same registry instances anyway).
      op_.store(&obs::metrics().counter(key), std::memory_order_release);
      total_.store(&obs::metrics().counter("deploy.sat.total"),
                   std::memory_order_release);
      gen_.store(gen, std::memory_order_release);
    }
    op_.load(std::memory_order_acquire)->add(sat);
    total_.load(std::memory_order_acquire)->add(sat);
  }
  if (obs::event_ring_enabled()) {
    std::uint32_t k = key_.load(std::memory_order_acquire);
    if (k == ~std::uint32_t{0}) {
      std::string key = std::string("deploy.sat.") + kind;
      if (!label.empty()) key += ":" + label;
      k = obs::flight_key(key.c_str());
      key_.store(k, std::memory_order_release);
    }
    obs::flight_record(obs::FlightKind::kSaturation, k,
                       static_cast<double>(sat));
  }
}

namespace {

/// |v| as an unsigned word: exact for every int64, INT64_MIN included.
std::uint64_t uabs(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  return v < 0 ? 0 - u : u;
}

constexpr auto kI64MaxU =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

}  // namespace

std::int64_t abs_bound(std::int64_t lo, std::int64_t hi) {
  return static_cast<std::int64_t>(
      std::min(std::max(uabs(lo), uabs(hi)), kI64MaxU));
}

WeightFacts WeightFacts::scan(const ITensor& w) {
  WeightFacts f;
  if (w.numel() == 0) return f;
  const std::int64_t rows = w.size(0);
  const std::int64_t per = w.numel() / rows;
  f.lo = f.hi = w[0];
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t* p = w.data() + r * per;
    std::int64_t lo = p[0], hi = p[0];
    // Each |w| is at most 2^63 and a row has under 2^63 elements, so the
    // 128-bit sum never wraps; it saturates once, at the end of the row.
    unsigned __int128 sum = 0;
    for (std::int64_t i = 0; i < per; ++i) {
      lo = std::min(lo, p[i]);
      hi = std::max(hi, p[i]);
      sum += uabs(p[i]);
    }
    f.lo = std::min(f.lo, lo);
    f.hi = std::max(f.hi, hi);
    f.abs_row_sum = std::max(
        f.abs_row_sum,
        static_cast<std::int64_t>(std::min<unsigned __int128>(sum, kI64MaxU)));
  }
  return f;
}

void DeployOp::run_into(const std::vector<const ITensor*>& ins,
                        ITensor& out) const {
  out = run(ins);
}

obs::OpCost DeployOp::cost(const std::vector<const ITensor*>& ins,
                           const ITensor& out) const {
  obs::OpCost c;
  c.flops = out.numel();
  for (const ITensor* t : ins) {
    c.bytes_read += t->numel() * static_cast<std::int64_t>(sizeof(std::int64_t));
  }
  c.bytes_written = out.numel() * static_cast<std::int64_t>(sizeof(std::int64_t));
  return c;
}

void recycle_tensor(ITensor& out, const Shape& shape) {
  if (out.shape() == shape) return;
  const auto n = static_cast<std::size_t>(shape_numel(shape));
  if (out.vec().size() < n) {
    out = ITensor(shape);
    return;
  }
  out.vec().resize(n);  // truncating keeps the elements: no fill
  out.reshape(shape);
}

DeployModel::DeployModel() : exec_(std::make_unique<ExecState>()) {
  consumers_.emplace_back();  // value 0: the network input
}
DeployModel::~DeployModel() = default;
DeployModel::DeployModel(DeployModel&&) noexcept = default;
DeployModel& DeployModel::operator=(DeployModel&&) noexcept = default;

int DeployModel::add_op(std::unique_ptr<DeployOp> op) {
  check(op != nullptr, "DeployModel::add_op(nullptr)");
  for (int in : op->inputs) {
    if (in < 0 || in > static_cast<int>(ops_.size())) {
      std::ostringstream os;
      os << "DeployModel::add_op: op #" << ops_.size() << " (" << op->kind()
         << (op->label.empty() ? "" : " '" + op->label + "'")
         << ") consumes value v" << in << ", but only v0..v" << ops_.size()
         << " exist — inputs must name the network input or an earlier "
            "op's output";
      check(false, os.str());
    }
  }
  const int op_index = static_cast<int>(ops_.size());
  for (int in : op->inputs) {
    consumers_[static_cast<std::size_t>(in)].push_back(op_index);
  }
  consumers_.emplace_back();  // this op's output value, no consumers yet
  ops_.push_back(std::move(op));
  audit_.emplace_back();
  invalidate_plan();
  return static_cast<int>(ops_.size());  // value id of this op's output
}

void DeployModel::set_audit(int value_id, OpAuditInfo info) {
  check(value_id >= 1 && value_id <= static_cast<int>(ops_.size()),
        "DeployModel::set_audit: unknown value id");
  audit_[static_cast<std::size_t>(value_id - 1)] = std::move(info);
}

const OpAuditInfo& DeployModel::audit_of(std::size_t i) const {
  check(i < audit_.size(), "DeployModel::audit_of: index out of range");
  return audit_[i];
}

void DeployModel::set_output(int value_id) {
  check(value_id >= 0 && value_id <= static_cast<int>(ops_.size()),
        "DeployModel::set_output: unknown value id");
  output_id_ = value_id;
  invalidate_plan();
}

int DeployModel::producer_of(int value_id) const {
  check(value_id >= 0 && value_id < num_values(),
        "DeployModel::producer_of: unknown value id");
  return value_id - 1;
}

const std::vector<int>& DeployModel::consumers_of(int value_id) const {
  check(value_id >= 0 && value_id < num_values(),
        "DeployModel::consumers_of: unknown value id");
  return consumers_[static_cast<std::size_t>(value_id)];
}

void DeployModel::rebuild_consumers() {
  consumers_.assign(static_cast<std::size_t>(num_values()), {});
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    for (int in : ops_[i]->inputs) {
      consumers_[static_cast<std::size_t>(in)].push_back(
          static_cast<int>(i));
    }
  }
}

void DeployModel::invalidate_plan() {
  if (!exec_) return;
  const std::lock_guard<std::mutex> lock(exec_->mu);
  exec_->plan.reset();
  exec_->idle.clear();
  exec_->stats = MemoryStats{};
}

void DeployModel::replace_uses(int from, int to) {
  check(from >= 1 && from < num_values() && to >= 0 && to < num_values(),
        "DeployModel::replace_uses: unknown value id");
  check(to < from,
        "DeployModel::replace_uses: replacement must be produced earlier");
  for (auto& op : ops_) {
    for (int& in : op->inputs) {
      if (in == from) in = to;
    }
  }
  if (output_id_ == from) output_id_ = to;
  rebuild_consumers();
  invalidate_plan();
}

std::size_t DeployModel::erase_ops(const std::vector<bool>& keep) {
  check(keep.size() == ops_.size(),
        "DeployModel::erase_ops: keep mask size mismatch");
  // New id of each surviving value; -1 marks a removed op's output.
  std::vector<int> new_id(static_cast<std::size_t>(num_values()), -1);
  new_id[0] = 0;
  int next = 1;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (keep[i]) new_id[i + 1] = next++;
  }
  std::size_t removed = 0;
  std::vector<std::unique_ptr<DeployOp>> ops;
  std::vector<OpAuditInfo> audit;
  ops.reserve(static_cast<std::size_t>(next) - 1);
  audit.reserve(static_cast<std::size_t>(next) - 1);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (!keep[i]) {
      for (int c : consumers_[i + 1]) {
        check(!keep[static_cast<std::size_t>(c)],
              "DeployModel::erase_ops: op '" + ops_[i]->kind() +
                  "' still has uses");
      }
      ++removed;
      continue;
    }
    for (int& in : ops_[i]->inputs) {
      const int mapped = new_id[static_cast<std::size_t>(in)];
      check(mapped >= 0, "DeployModel::erase_ops: operand of kept op '" +
                             ops_[i]->kind() + "' was removed");
      in = mapped;
    }
    ops.push_back(std::move(ops_[i]));
    audit.push_back(std::move(audit_[i]));
  }
  ops_ = std::move(ops);
  audit_ = std::move(audit);
  if (output_id_ >= 0) {
    const int mapped = new_id[static_cast<std::size_t>(output_id_)];
    check(mapped >= 0, "DeployModel::erase_ops: output value was removed");
    output_id_ = mapped;
  }
  rebuild_consumers();
  invalidate_plan();
  return removed;
}

const DeployOp& DeployModel::op(std::size_t i) const {
  check(i < ops_.size(), "DeployModel::op: index out of range");
  return *ops_[i];
}

DeployOp& DeployModel::mutable_op(std::size_t i) {
  check(i < ops_.size(), "DeployModel::op: index out of range");
  return *ops_[i];
}

ITensor DeployModel::quantize_input(const Tensor& x) const {
  ITensor q(x.shape());
  const bool prof = obs::metrics_enabled();
  // Clip counts accumulate per partition slot and merge once below — one
  // registry hit per call, identical totals at any thread count.
  std::vector<std::int64_t> clipped(
      static_cast<std::size_t>(par::max_slots()), 0);
  par::parallel_for(
      0, x.numel(), 4096, [&](std::int64_t i0, std::int64_t i1, int slot) {
        std::int64_t c = 0;
        for (std::int64_t i = i0; i < i1; ++i) {
          std::int64_t v = static_cast<std::int64_t>(
                               std::nearbyintf(x[i] / input_scale)) +
                           static_cast<std::int64_t>(input_zero);
          if (prof && (v < input_qmin || v > input_qmax)) ++c;
          q[i] = std::min(input_qmax, std::max(input_qmin, v));
        }
        clipped[static_cast<std::size_t>(slot)] += c;
      });
  if (prof) {
    obs::metrics().counter("deploy.sat.input_quantize")
        .add(std::accumulate(clipped.begin(), clipped.end(), std::int64_t{0}));
  }
  return q;
}

const ExecutionPlan& DeployModel::plan() const {
  const std::lock_guard<std::mutex> lock(exec_->mu);
  if (!exec_->plan) {
    exec_->plan = std::make_unique<ExecutionPlan>(ExecutionPlan::compile(*this));
  }
  return *exec_->plan;
}

DeployModel::MemoryStats DeployModel::memory_stats() const {
  const std::lock_guard<std::mutex> lock(exec_->mu);
  MemoryStats s = exec_->stats;
  if (exec_->plan) {
    s.plan_slots = exec_->plan->num_slots();
    s.inplace_steps = exec_->plan->inplace_steps();
  }
  return s;
}

ITensor DeployModel::run_int(const ITensor& input) const {
  check(output_id_ >= 0, "DeployModel: output not set");
  // Plan once, then hand each concurrent run its own arena; buffers stay
  // pooled across runs so steady-state serving reuses warm allocations.
  const ExecutionPlan* plan = nullptr;
  std::unique_ptr<Arena> arena;
  {
    const std::lock_guard<std::mutex> lock(exec_->mu);
    if (!exec_->plan) {
      exec_->plan =
          std::make_unique<ExecutionPlan>(ExecutionPlan::compile(*this));
    }
    plan = exec_->plan.get();
    if (!exec_->idle.empty()) {
      arena = std::move(exec_->idle.back());
      exec_->idle.pop_back();
    }
  }
  if (!arena) arena = std::make_unique<Arena>();
  MemoryStats run_stats;
  ITensor out = plan->execute(*this, input, *arena, run_stats);
  {
    const std::lock_guard<std::mutex> lock(exec_->mu);
    MemoryStats& agg = exec_->stats;
    agg.naive_bytes = std::max(agg.naive_bytes, run_stats.naive_bytes);
    agg.peak_bytes = std::max(agg.peak_bytes, run_stats.peak_bytes);
    agg.arena_bytes = std::max(agg.arena_bytes, run_stats.arena_bytes);
    agg.plan_slots = run_stats.plan_slots;
    agg.inplace_steps = run_stats.inplace_steps;
    agg.runs += 1;
    exec_->idle.push_back(std::move(arena));
  }
  if (obs::metrics_enabled()) {
    obs::metrics().gauge("deploy.mem.naive_bytes")
        .set(static_cast<double>(run_stats.naive_bytes));
    obs::metrics().gauge("deploy.mem.peak_bytes")
        .set(static_cast<double>(run_stats.peak_bytes));
    obs::metrics().gauge("deploy.mem.arena_bytes")
        .set(static_cast<double>(run_stats.arena_bytes));
    obs::metrics().gauge("deploy.mem.plan_slots")
        .set(static_cast<double>(run_stats.plan_slots));
    obs::metrics().gauge("deploy.mem.inplace_steps")
        .set(static_cast<double>(run_stats.inplace_steps));
  }
  return out;
}

Tensor DeployModel::run(const Tensor& x) const {
  const obs::TraceSpan span("deploy.run", "deploy");
  const ITensor logits = run_int(quantize_input(x));
  Tensor out(logits.shape());
  par::parallel_for(0, logits.numel(), 4096,
                    [&](std::int64_t i0, std::int64_t i1) {
                      for (std::int64_t i = i0; i < i1; ++i) {
                        out[i] = static_cast<float>(logits[i]) * output_scale;
                      }
                    });
  if (obs::metrics_enabled()) {
    obs::metrics().counter("deploy.batches").add(1);
    obs::metrics().counter("deploy.images").add(x.size(0));
  }
  return out;
}

double DeployModel::evaluate(const Tensor& images,
                             const std::vector<std::int64_t>& labels,
                             std::int64_t batch_size) const {
  const obs::TraceSpan span("deploy.evaluate", "deploy");
  check(images.rank() == 4, "DeployModel::evaluate expects [N,C,H,W]");
  const std::int64_t n = images.size(0);
  check(n == static_cast<std::int64_t>(labels.size()),
        "DeployModel::evaluate: label count mismatch");
  std::int64_t hits = 0;
  for (std::int64_t lo = 0; lo < n; lo += batch_size) {
    const std::int64_t hi = std::min(n, lo + batch_size);
    Shape s = images.shape();
    s[0] = hi - lo;
    Tensor chunk(std::move(s));
    for (std::int64_t i = lo; i < hi; ++i) chunk.set0(i - lo, images.select0(i));
    const Tensor logits = run(chunk);
    const auto pred = argmax_rows(logits);
    for (std::int64_t i = lo; i < hi; ++i) {
      if (pred[static_cast<std::size_t>(i - lo)] ==
          labels[static_cast<std::size_t>(i)]) {
        ++hits;
      }
    }
  }
  return 100.0 * static_cast<double>(hits) / static_cast<double>(n);
}

DeployModel::Summary DeployModel::summarize() const {
  Summary s;
  s.total_ops = ops_.size();
  std::map<std::string, std::size_t> counts;
  const auto weight = [&](const ITensor& t, const WeightFacts& f) {
    s.weight_elements += t.numel();
    s.weight_storage_bits +=
        t.numel() * static_cast<std::int64_t>(required_word_bits(f.lo, f.hi));
  };
  for (const auto& op : ops_) {
    ++counts[op->kind()];
    if (const auto* cv = dynamic_cast<const IntConv2dOp*>(op.get())) {
      weight(cv->weight(), cv->weight_facts());
    } else if (const auto* ln = dynamic_cast<const IntLinearOp*>(op.get())) {
      weight(ln->weight(), ln->weight_facts());
    } else if (const auto* at = dynamic_cast<const IntAttentionOp*>(op.get())) {
      weight(at->params().wqkv, at->wqkv_facts());
      weight(at->params().wproj, at->wproj_facts());
      s.lut_entries += static_cast<std::int64_t>(at->params().softmax_lut.size());
    } else if (const auto* sm = dynamic_cast<const LutSoftmaxOp*>(op.get())) {
      s.lut_entries += static_cast<std::int64_t>(sm->lut().size());
    } else if (const auto* ge = dynamic_cast<const LutGeluOp*>(op.get())) {
      s.lut_entries += static_cast<std::int64_t>(ge->lut().size());
    }
  }
  s.op_counts.assign(counts.begin(), counts.end());
  s.mem = memory_stats();
  if (s.mem.runs == 0 && output_id_ >= 0) {
    // No run yet: the plan still gives the static planning numbers.
    s.mem.plan_slots = plan().num_slots();
    s.mem.inplace_steps = plan().inplace_steps();
  }
  return s;
}

std::string DeployModel::summary_text() const {
  const Summary s = summarize();
  std::ostringstream os;
  os << "deploy graph: " << s.total_ops << " ops (";
  for (std::size_t i = 0; i < s.op_counts.size(); ++i) {
    if (i) os << ", ";
    os << s.op_counts[i].second << " " << s.op_counts[i].first;
  }
  os << "); " << s.weight_elements << " integer weights, "
     << (s.weight_storage_bits + 7) / 8 << " bytes at minimal width";
  if (s.lut_entries > 0) os << "; " << s.lut_entries << " LUT entries";
  if (output_id_ >= 0) {
    os << "\nmemory plan: " << s.mem.plan_slots << " arena slots, "
       << s.mem.inplace_steps << " in-place steps";
    if (s.mem.runs > 0) {
      os << "; measured over " << s.mem.runs
         << " runs: " << s.mem.naive_bytes << " B keep-everything, "
         << s.mem.peak_bytes << " B planned peak, " << s.mem.arena_bytes
         << " B arena retained";
    }
  }
  return os.str();
}

}  // namespace t2c
