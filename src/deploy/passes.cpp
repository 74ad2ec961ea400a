#include "deploy/passes.h"

#include <algorithm>
#include <limits>
#include <map>

#include "deploy/int_ops.h"
#include "deploy/vit_ops.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "tensor/solver.h"
#include "util/check.h"

namespace t2c {

namespace {

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

std::int64_t sat_i64(__int128 v) {
  if (v > static_cast<__int128>(kI64Max)) return kI64Max;
  if (v < static_cast<__int128>(kI64Min)) return kI64Min;
  return static_cast<std::int64_t>(v);
}

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  return sat_i64(static_cast<__int128>(a) + b);
}

std::int64_t sat_mul(std::int64_t a, std::int64_t b) {
  return sat_i64(static_cast<__int128>(a) * b);
}

std::int64_t sat_shl(std::int64_t v, int k) {
  return sat_i64(static_cast<__int128>(v) << k);
}

/// Largest absolute-value row sum of a weight tensor whose leading dim is
/// the output channel/feature — the worst-case accumulator magnitude per
/// unit of input bound.
std::int64_t max_abs_row_sum(const ITensor& w) {
  const std::int64_t rows = w.size(0);
  const std::int64_t per = rows > 0 ? w.numel() / rows : 0;
  std::int64_t best = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t acc = 0;
    for (std::int64_t i = r * per; i < (r + 1) * per; ++i) {
      acc = sat_add(acc, w[i] < 0 ? sat_i64(-static_cast<__int128>(w[i]))
                                  : w[i]);
    }
    best = std::max(best, acc);
  }
  return best;
}

ValueRange clamp_range(std::int64_t lo_pre, std::int64_t hi_pre,
                       std::int64_t lo, std::int64_t hi) {
  return {std::clamp(lo_pre, lo, hi), std::clamp(hi_pre, lo, hi)};
}

/// Largest magnitude inside a value range (kI64Min/kI64Max-safe).
std::int64_t range_abs(const ValueRange& r) {
  const std::int64_t alo =
      r.lo == kI64Min ? kI64Max : (r.lo < 0 ? -r.lo : r.lo);
  const std::int64_t ahi =
      r.hi == kI64Min ? kI64Max : (r.hi < 0 ? -r.hi : r.hi);
  return std::max(alo, ahi);
}

std::int64_t max_abs_elem(const ITensor& w) {
  std::int64_t m = 0;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    m = std::max(m, w[i] < 0 ? sat_i64(-static_cast<__int128>(w[i])) : w[i]);
  }
  return m;
}

/// True when the per-tensor MulQuant `mq` computes exactly y = x << k
/// before its clamp: bias 0 and multiplier a power of two 2^(frac + k),
/// k >= 0. With mul = 2^(frac+k) the datapath is
///   (2^(frac+k) * (x << bf) + 2^(frac+bf-1)) >> (frac + bf)
///   = (x << k) + floor-of-half = x << k        (the half never carries).
/// Downshifts (k < 0) round and are not foldable.
bool exact_upshift(const MulQuantOp& mq, int& k_out) {
  if (mq.layout() != MqLayout::kPerTensor) return false;
  if (mq.bias()[0] != 0) return false;
  const std::int64_t m = mq.mul()[0];
  if (m <= 0 || (m & (m - 1)) != 0) return false;
  int p = 0;
  while ((std::int64_t{1} << p) != m) ++p;
  const int fr = mq.frac_bits()[0];
  if (p < fr) return false;
  k_out = p - fr;
  return true;
}

}  // namespace

std::vector<ValueRange> compute_value_ranges(const DeployModel& dm) {
  std::vector<ValueRange> r(static_cast<std::size_t>(dm.num_values()),
                            ValueRange{kI64Min, kI64Max});
  r[0] = {dm.input_qmin, dm.input_qmax};
  for (std::size_t i = 0; i < dm.num_ops(); ++i) {
    const DeployOp& op = dm.op(i);
    ValueRange& out = r[i + 1];
    const auto in_range = [&](std::size_t k) {
      return r[static_cast<std::size_t>(op.inputs[k])];
    };
    if (const auto* mq = dynamic_cast<const MulQuantOp*>(&op)) {
      out = {mq->out_min(), mq->out_max()};
    } else if (const auto* add = dynamic_cast<const IntAddOp*>(&op)) {
      const ValueRange a = in_range(0), b = in_range(1);
      out = clamp_range(sat_add(a.lo, b.lo), sat_add(a.hi, b.hi),
                        add->out_min(), add->out_max());
    } else if (dynamic_cast<const IntMaxPool2dOp*>(&op) != nullptr) {
      // Fully-padded windows emit 0, so the range widens to include it.
      const ValueRange a = in_range(0);
      out = {std::min<std::int64_t>(a.lo, 0), std::max<std::int64_t>(a.hi, 0)};
    } else if (const auto* gp = dynamic_cast<const IntGlobalAvgPoolOp*>(&op)) {
      out = {gp->out_min(), gp->out_max()};
    } else if (const auto* mp =
                   dynamic_cast<const IntMeanPoolTokensOp*>(&op)) {
      out = {mp->out_min(), mp->out_max()};
    } else if (dynamic_cast<const TokenizeOp*>(&op) != nullptr) {
      out = in_range(0);
    } else if (const auto* cv = dynamic_cast<const IntConv2dOp*>(&op)) {
      const ValueRange a = in_range(0);
      const std::int64_t m = std::max(
          a.lo == kI64Min ? kI64Max : sat_i64(-static_cast<__int128>(a.lo)),
          a.hi);
      const std::int64_t bound = sat_mul(max_abs_row_sum(cv->weight()), m);
      out = {sat_i64(-static_cast<__int128>(bound)), bound};
    } else if (const auto* ln = dynamic_cast<const IntLinearOp*>(&op)) {
      const ValueRange a = in_range(0);
      const std::int64_t m = std::max(
          a.lo == kI64Min ? kI64Max : sat_i64(-static_cast<__int128>(a.lo)),
          a.hi);
      const std::int64_t bound = sat_mul(max_abs_row_sum(ln->weight()), m);
      out = {sat_i64(-static_cast<__int128>(bound)), bound};
    } else if (const auto* sm = dynamic_cast<const LutSoftmaxOp*>(&op)) {
      out = {0, sm->p_qmax()};
    } else if (const auto* ge = dynamic_cast<const LutGeluOp*>(&op)) {
      const auto& lut = ge->lut();
      out = {*std::min_element(lut.begin(), lut.end()),
             *std::max_element(lut.begin(), lut.end())};
    } else if (const auto* lnorm = dynamic_cast<const IntLayerNormOp*>(&op)) {
      out = {lnorm->out_min(), lnorm->out_max()};
    } else if (const auto* at = dynamic_cast<const IntAttentionOp*>(&op)) {
      out = {at->params().out_min, at->params().out_max};
    }
    // Unknown kinds keep the full-int64 default (never foldable around).
  }
  return r;
}

std::size_t pass_validate(DeployModel& dm) {
  check(dm.output_id() >= 0 && dm.output_id() < dm.num_values(),
        "pass_validate: output id missing or out of range");
  for (std::size_t i = 0; i < dm.num_ops(); ++i) {
    const DeployOp& op = dm.op(i);
    for (int in : op.inputs) {
      if (in < 0 || in > static_cast<int>(i)) {
        fail("pass_validate: op #" + std::to_string(i) + " (" + op.kind() +
             ") references value v" + std::to_string(in) +
             " which is not produced before it");
      }
    }
  }
  for (int v = 0; v < dm.num_values(); ++v) {
    for (int c : dm.consumers_of(v)) {
      check(c >= 0 && c < static_cast<int>(dm.num_ops()),
            "pass_validate: consumer index out of range");
      const auto& ins = dm.op(static_cast<std::size_t>(c)).inputs;
      check(std::find(ins.begin(), ins.end(), v) != ins.end(),
            "pass_validate: consumer list names an op that does not read "
            "the value");
    }
  }
  return 0;
}

std::size_t pass_fold_requants(DeployModel& dm) {
  std::size_t changes = 0;
  bool again = true;
  while (again) {
    again = false;
    const auto ranges = compute_value_ranges(dm);
    for (std::size_t i = 0; i < dm.num_ops(); ++i) {
      const int v = static_cast<int>(i) + 1;
      if (v == dm.output_id()) continue;
      const auto* rq = dynamic_cast<const MulQuantOp*>(&dm.op(i));
      if (rq == nullptr || rq->inputs.size() != 1) continue;
      int k = 0;
      if (!exact_upshift(*rq, k)) continue;
      // The requant's clamp must provably never engage, otherwise the
      // pre-clamp identity y = x << k does not hold for all inputs.
      const int u = rq->inputs[0];
      const ValueRange rx = ranges[static_cast<std::size_t>(u)];
      if (rx.lo == kI64Min || sat_shl(rx.lo, k) < rq->out_min() ||
          sat_shl(rx.hi, k) > rq->out_max()) {
        continue;
      }
      const std::vector<int>& consumers = dm.consumers_of(v);
      if (consumers.empty()) continue;  // dead already; dve's job
      if (k > 0) {
        // Only MulQuant consumers can absorb a nonzero shift, and only
        // while their own fixed-point fields stay in range.
        bool ok = true;
        for (int c : consumers) {
          const auto* mq = dynamic_cast<const MulQuantOp*>(
              &dm.op(static_cast<std::size_t>(c)));
          if (mq == nullptr || mq->bias_frac() + k > 16) {
            ok = false;
            break;
          }
          for (int f : mq->frac_bits()) {
            if (f < k) {
              ok = false;
              break;
            }
          }
          if (!ok) break;
        }
        if (!ok) continue;
        for (int c : consumers) {
          auto& mq =
              dynamic_cast<MulQuantOp&>(dm.mutable_op(static_cast<std::size_t>(c)));
          mq.absorb_upshift(k);
        }
      }
      // k == 0 is a pure identity; either way the requant is bypassed and
      // dve collects it.
      dm.replace_uses(v, u);
      ++changes;
      again = true;
      break;  // consumer lists changed; rescan from a consistent state
    }
  }
  return changes;
}

std::size_t pass_dedup(DeployModel& dm) {
  // An op's full parameter payload (labels excluded), serialized only
  // once its (kind, operands) bucket already holds another op.
  const auto params_of = [&dm](int v) {
    std::string params;
    dm.op(static_cast<std::size_t>(v - 1)).save_params(params);
    return params;
  };
  std::size_t merged = 0;
  bool again = true;
  while (again) {
    again = false;
    // (kind, operand ids) -> the distinct ops seen so far with that
    // signature, first occurrence first: only these can ever merge.
    struct Entry {
      int v;
      std::string params;  // filled on the first collision
    };
    std::map<std::pair<std::string, std::vector<int>>, std::vector<Entry>>
        buckets;
    for (std::size_t i = 0; i < dm.num_ops(); ++i) {
      const DeployOp& op = dm.op(i);
      const int v = static_cast<int>(i) + 1;
      std::vector<Entry>& bucket = buckets[{op.kind(), op.inputs}];
      if (bucket.empty()) {
        bucket.push_back({v, {}});
        continue;
      }
      std::string params = params_of(v);
      const Entry* first = nullptr;
      for (Entry& e : bucket) {
        if (e.params.empty()) e.params = params_of(e.v);
        if (e.params == params) {
          first = &e;
          break;
        }
      }
      if (first == nullptr) {
        bucket.push_back({v, std::move(params)});
        continue;
      }
      // Already-bypassed duplicates linger until dve erases them; merging
      // them again would rewrite nothing and rescan forever.
      if (dm.consumers_of(v).empty() && dm.output_id() != v) continue;
      dm.replace_uses(v, first->v);
      ++merged;
      again = true;
      break;  // rewiring may expose cascading duplicates downstream
    }
  }
  return merged;
}

std::size_t pass_dve(DeployModel& dm) {
  if (dm.output_id() < 0) return 0;
  std::vector<bool> keep(dm.num_ops(), false);
  std::vector<bool> seen(static_cast<std::size_t>(dm.num_values()), false);
  std::vector<int> stack{dm.output_id()};
  seen[static_cast<std::size_t>(dm.output_id())] = true;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (v == 0) continue;
    keep[static_cast<std::size_t>(v - 1)] = true;
    for (int in : dm.op(static_cast<std::size_t>(v - 1)).inputs) {
      if (!seen[static_cast<std::size_t>(in)]) {
        seen[static_cast<std::size_t>(in)] = true;
        stack.push_back(in);
      }
    }
  }
  if (std::find(keep.begin(), keep.end(), false) == keep.end()) return 0;
  return dm.erase_ops(keep);
}

std::size_t pass_select_solvers(DeployModel& dm) {
  const auto ranges = compute_value_ranges(dm);
  solver::Registry& reg = solver::Registry::instance();
  std::size_t changes = 0;
  for (std::size_t i = 0; i < dm.num_ops(); ++i) {
    DeployOp& op = dm.mutable_op(i);
    const int v = static_cast<int>(i) + 1;
    const auto in_abs = [&] {
      return range_abs(ranges[static_cast<std::size_t>(op.inputs[0])]);
    };
    if (auto* at = dynamic_cast<IntAttentionOp*>(&op)) {
      const std::int64_t b = in_abs();
      at->set_input_bound(b == kI64Max ? 0 : b);  // consults the registry
      if (at->kernel() == "attn_i16") ++changes;
      continue;
    }
    auto* cv = dynamic_cast<IntConv2dOp*>(&op);
    auto* ln = dynamic_cast<IntLinearOp*>(&op);
    if (cv == nullptr && ln == nullptr) continue;
    const ITensor& w = cv != nullptr ? cv->weight() : ln->weight();
    // Assemble the problem: geometry, value-range bounds (the int8
    // overflow proof lives in solver applicability), and whether the
    // accumulator's single consumer offers a fusable requant epilogue.
    solver::Problem p;
    if (cv != nullptr) {
      p.op = solver::OpKind::kConvInt;
      p.m = cv->spec().out_channels / cv->spec().groups;
      p.k = (cv->spec().in_channels / cv->spec().groups) * cv->spec().kernel *
            cv->spec().kernel;
    } else {
      p.op = solver::OpKind::kLinearInt;  // rows are batch dependent: m = -1
      p.k = w.size(1);
    }
    p.a_max = in_abs();
    p.w_max = max_abs_elem(w);
    const auto& cons = dm.consumers_of(v);
    const MulQuantOp* mq =
        cons.size() == 1 && v != dm.output_id()
            ? dynamic_cast<const MulQuantOp*>(
                  &dm.op(static_cast<std::size_t>(cons[0])))
            : nullptr;
    if (mq == nullptr) {
      p.epilogue_reason = cons.size() == 1 ? "consumer" : "shared";
    } else {
      // Conv entries follow the channel (GEMM-row) axis, linear entries
      // the feature (GEMM-column) axis.
      const bool ok =
          cv != nullptr
              ? mq->layout() == MqLayout::kPerTensor ||
                    (mq->layout() == MqLayout::kChannelNCHW &&
                     mq->mul().size() ==
                         static_cast<std::size_t>(cv->spec().out_channels))
              : mq->layout() == MqLayout::kPerTensor ||
                    (mq->layout() == MqLayout::kLastDim &&
                     mq->mul().size() == static_cast<std::size_t>(w.size(0)));
      if (ok) {
        p.epilogue = true;
      } else {
        p.epilogue_reason = "layout";
      }
    }
    solver::SolverChoice choice = reg.choose(p);
    if (choice.i8) ++changes;
    if (cv != nullptr) {
      cv->set_solver_choice(std::move(choice));
    } else {
      ln->set_solver_choice(std::move(choice));
    }
  }
  // Kernel annotations are baked into the compiled plan (weight packing and
  // epilogue pairing), so any plan cached before this pass is stale even
  // though the graph itself did not change.
  dm.invalidate_plan();
  return changes;
}

PassManager& PassManager::add(std::string name, PassFn fn) {
  passes_.emplace_back(std::move(name), std::move(fn));
  return *this;
}

std::vector<PassStats> PassManager::run(DeployModel& dm) const {
  std::vector<PassStats> out;
  out.reserve(passes_.size());
  for (const auto& [name, fn] : passes_) {
    PassStats st;
    st.name = name;
    st.ops_before = dm.num_ops();
    const DeployModel::Summary before = dm.summarize();
    st.changes = fn(dm);
    st.ops_after = dm.num_ops();
    const DeployModel::Summary after = dm.summarize();
    st.bytes_saved =
        (before.weight_storage_bits - after.weight_storage_bits) / 8 +
        (before.lut_entries - after.lut_entries) *
            static_cast<std::int64_t>(sizeof(std::int64_t));
    if (obs::metrics_enabled()) {
      obs::metrics().counter("deploy.pass." + name + ".changes")
          .add(static_cast<std::int64_t>(st.changes));
      obs::metrics().counter("deploy.pass.ops_removed")
          .add(static_cast<std::int64_t>(st.ops_before - st.ops_after));
      obs::metrics().counter("deploy.pass.bytes_saved").add(st.bytes_saved);
    }
    if (st.changes > 0) {
      obs::log_debug("pass ", name, ": ", st.changes, " rewrites, ",
                     st.ops_before, " -> ", st.ops_after, " ops");
    }
    out.push_back(std::move(st));
  }
  return out;
}

PassManager PassManager::pipeline(int opt_level) {
  PassManager pm;
  pm.add("validate", pass_validate);
  if (opt_level >= 2) pm.add("fold_requants", pass_fold_requants);
  if (opt_level >= 1) {
    pm.add("dedup", pass_dedup);
    pm.add("dve", pass_dve);
  }
  // Solver selection runs on the final graph shape so the single-consumer
  // fusion test sees the post-DVE use lists.
  if (opt_level >= 2) pm.add("select_solvers", pass_select_solvers);
  return pm;
}

std::size_t optimize_deploy_graph(DeployModel& dm, int opt_level) {
  const std::size_t before = dm.num_ops();
  PassManager::pipeline(opt_level).run(dm);
  return before - dm.num_ops();
}

}  // namespace t2c
