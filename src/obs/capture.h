// Tensor capture — pillar 4 of the observability layer (obs/).
//
// A label-keyed registry of tapped intermediate tensors, feeding the
// dual-path divergence auditor (src/audit/). Two process-wide registries
// mirror the paper's two execution paths:
//   float_taps() — fake-quantized float path (Sequential forward hook)
//   int_taps()   — integer deploy path (DeployModel::run_int per-op tap)
//
// Collection is gated on `capture_enabled()` (default off) exactly like
// `metrics_enabled()`: a disabled hot path pays one relaxed atomic load
// and one predictable branch per op. Memory is bounded by a configurable
// per-tap sample cap; a tap remembers how many elements it *saw* so
// consumers can tell a truncated capture from a complete one.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/tier.h"

namespace t2c::obs {

/// Global switch for all tensor capture (default: disabled).
inline bool capture_enabled() { return tier_on(kTierCapture); }
inline void set_capture_enabled(bool on) { set_tier(kTierCapture, on); }

/// One captured tensor stream. Values are stored as doubles: every integer
/// the deploy path produces (|v| < 2^53) and every float the training path
/// produces round-trips exactly, so golden-vector reconstruction is
/// bit-faithful.
struct TensorTap {
  std::vector<double> samples;      ///< first `cap` elements, record order
  std::vector<std::int64_t> shape;  ///< shape of the first recorded tensor
  std::int64_t total = 0;           ///< elements seen, including dropped ones
  std::int64_t records = 0;         ///< number of record() calls appended
  bool from_int = false;            ///< captured from the integer path

  /// True when nothing was dropped by the sample cap.
  bool complete() const {
    return total == static_cast<std::int64_t>(samples.size());
  }
};

/// Label-keyed tap store. Thread-safe; recording appends to the same tap
/// when a label repeats (multi-batch capture), truncating at the cap.
class TapRegistry {
 public:
  /// Per-tap element cap; values <= 0 mean unlimited. Applies to future
  /// record() calls only.
  void set_sample_cap(std::int64_t cap);
  std::int64_t sample_cap() const;

  void record(const std::string& label, const float* data, std::int64_t n,
              const std::vector<std::int64_t>& shape);
  void record(const std::string& label, const std::int64_t* data,
              std::int64_t n, const std::vector<std::int64_t>& shape);

  bool has(const std::string& label) const;
  /// Copy of the tap for `label`; throws t2c::Error when missing.
  TensorTap tap(const std::string& label) const;
  /// All labels in sorted order (deterministic reporting).
  std::vector<std::string> labels() const;
  std::size_t size() const;
  void clear();

 private:
  template <typename T>
  void record_impl(const std::string& label, const T* data, std::int64_t n,
                   const std::vector<std::int64_t>& shape, bool from_int);

  mutable std::mutex mu_;
  std::int64_t cap_ = std::int64_t{1} << 16;
  std::map<std::string, TensorTap> taps_;
};

/// The fake-quantized float path registry (fed by the nn forward hook).
TapRegistry& float_taps();
/// The integer deploy path registry (fed by DeployModel::run_int).
TapRegistry& int_taps();

/// Reserved int-path label for the deploy graph's quantized input (value 0).
inline constexpr const char* kInputTapLabel = "__input__";

/// Canonical int-path tap key for deploy op `index` with provenance
/// `label`: "012:stage1.block0.conv1.mulquant". The index prefix keeps keys
/// unique when two ops share a label and orders taps by graph position.
std::string op_tap_key(std::size_t index, const std::string& label);

}  // namespace t2c::obs
