#include "obs/capture.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"

namespace t2c::obs {

void TapRegistry::set_sample_cap(std::int64_t cap) {
  const std::lock_guard<std::mutex> lock(mu_);
  cap_ = cap;
}

std::int64_t TapRegistry::sample_cap() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cap_;
}

template <typename T>
void TapRegistry::record_impl(const std::string& label, const T* data,
                              std::int64_t n,
                              const std::vector<std::int64_t>& shape,
                              bool from_int) {
  check(data != nullptr || n == 0, "TapRegistry::record: null data");
  const std::lock_guard<std::mutex> lock(mu_);
  TensorTap& t = taps_[label];
  if (t.records == 0) {
    t.shape = shape;
    t.from_int = from_int;
  }
  ++t.records;
  t.total += n;
  const std::int64_t room =
      cap_ <= 0 ? n
                : std::max<std::int64_t>(
                      0, cap_ - static_cast<std::int64_t>(t.samples.size()));
  const std::int64_t keep = std::min(n, room);
  t.samples.reserve(t.samples.size() + static_cast<std::size_t>(keep));
  for (std::int64_t i = 0; i < keep; ++i) {
    t.samples.push_back(static_cast<double>(data[i]));
  }
}

void TapRegistry::record(const std::string& label, const float* data,
                         std::int64_t n,
                         const std::vector<std::int64_t>& shape) {
  record_impl(label, data, n, shape, /*from_int=*/false);
}

void TapRegistry::record(const std::string& label, const std::int64_t* data,
                         std::int64_t n,
                         const std::vector<std::int64_t>& shape) {
  record_impl(label, data, n, shape, /*from_int=*/true);
}

bool TapRegistry::has(const std::string& label) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return taps_.count(label) > 0;
}

TensorTap TapRegistry::tap(const std::string& label) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = taps_.find(label);
  check(it != taps_.end(), "TapRegistry: no tap named '" + label + "'");
  return it->second;
}

std::vector<std::string> TapRegistry::labels() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(taps_.size());
  for (const auto& [name, t] : taps_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

std::size_t TapRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return taps_.size();
}

void TapRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  taps_.clear();
}

TapRegistry& float_taps() {
  static TapRegistry* reg = new TapRegistry();
  return *reg;
}

TapRegistry& int_taps() {
  static TapRegistry* reg = new TapRegistry();
  return *reg;
}

std::string op_tap_key(std::size_t index, const std::string& label) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%03zu:", index);
  return buf + label;
}

}  // namespace t2c::obs
