#include "util/fixed_point.h"

#include <cmath>

#include "util/check.h"

namespace t2c {

std::int64_t FixedPointFormat::max_raw() const {
  return (std::int64_t{1} << (total_bits() - 1)) - 1;
}

std::int64_t FixedPointFormat::min_raw() const {
  return -(std::int64_t{1} << (total_bits() - 1));
}

double FixedPointFormat::resolution() const {
  return std::ldexp(1.0, -frac_bits);
}

std::int64_t to_fixed(double x, const FixedPointFormat& fmt) {
  check(fmt.total_bits() >= 2 && fmt.total_bits() <= 62,
        "fixed-point width must be in [2, 62] bits");
  // int_bits may be <= 0 for normalized multiplier+shift words (the binary
  // point then sits left of the word); only the total width must be sane.
  check(fmt.frac_bits >= 0 && fmt.frac_bits <= 60,
        "fixed-point format requires frac_bits in [0, 60]");
  const double scaled = x * std::ldexp(1.0, fmt.frac_bits);
  const double rounded = std::nearbyint(scaled);
  if (rounded > static_cast<double>(fmt.max_raw())) return fmt.max_raw();
  if (rounded < static_cast<double>(fmt.min_raw())) return fmt.min_raw();
  return static_cast<std::int64_t>(rounded);
}

double from_fixed(std::int64_t raw, const FixedPointFormat& fmt) {
  return static_cast<double>(raw) * fmt.resolution();
}

double fixed_round(double x, const FixedPointFormat& fmt) {
  return from_fixed(to_fixed(x, fmt), fmt);
}

std::vector<std::int64_t> to_fixed(const std::vector<double>& xs,
                                   const FixedPointFormat& fmt) {
  std::vector<std::int64_t> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(to_fixed(x, fmt));
  return out;
}

}  // namespace t2c
