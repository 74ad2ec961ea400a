// Shared helpers for the test suite: deterministic tensor builders,
// central-difference gradient checking for modules and losses, and a guard
// for the ISA cap.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "nn/module.h"
#include "tensor/conv_ops.h"
#include "tensor/tensor.h"
#include "util/cpuinfo.h"
#include "util/rng.h"

namespace t2c::testing {

/// Restores the ISA cap in force at construction on scope exit, so a test
/// that caps the kernel rung cannot leak it (nor lift a T2C_ISA cap).
struct IsaCapGuard {
  util::IsaTier saved = util::cpu_isa_tier();
  ~IsaCapGuard() { util::set_isa_tier_cap(saved); }
};

/// iconv2d_forward with the weight bounds of a scan of w.
inline ITensor iconv_scanned(const ITensor& x, const ITensor& w,
                             const ConvSpec& s) {
  const auto [lo, hi] = std::minmax_element(w.data(), w.data() + w.numel());
  return iconv2d_forward(x, w, *lo, *hi, s);
}

/// Deterministic pseudo-random tensor (values in roughly [-1, 1]).
inline Tensor random_tensor(Shape shape, std::uint64_t seed = 1,
                            float scale = 1.0F) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  rng.fill_uniform(t.vec(), -scale, scale);
  return t;
}

/// Scalar objective of a tensor output: 0.5 * sum(y^2) — its gradient w.r.t.
/// y is simply y, which makes analytic chaining trivial.
inline double half_sq_sum(const Tensor& y) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    acc += 0.5 * static_cast<double>(y[i]) * y[i];
  }
  return acc;
}

/// Checks the module's input gradient and every parameter gradient against
/// central differences of the objective L = half_sq_sum(forward(x)).
/// `eps` is the finite-difference step, `tol` the max allowed |analytic -
/// numeric| (absolute, on gradients of order ~1).
inline void grad_check(Module& m, const Tensor& x, float eps = 1e-3F,
                       float tol = 2e-2F, bool check_params = true) {
  m.set_mode(ExecMode::kTrain);
  m.zero_grad();
  Tensor y = m.forward(x);
  Tensor gy = y;  // dL/dy = y for L = 0.5*sum(y^2)
  Tensor gx = m.backward(gy);

  // Input gradient.
  Tensor xp = x;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float orig = xp[i];
    xp[i] = orig + eps;
    const double lp = half_sq_sum(m.forward(xp));
    xp[i] = orig - eps;
    const double lm = half_sq_sum(m.forward(xp));
    xp[i] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    ASSERT_NEAR(gx[i], num, tol)
        << m.kind() << ": input grad mismatch at flat index " << i;
  }

  if (!check_params) return;
  for (Param* p : m.parameters()) {
    if (!p->requires_grad) continue;
    // Probe a bounded number of entries per parameter to keep tests fast.
    const std::int64_t stride =
        std::max<std::int64_t>(1, p->value.numel() / 24);
    for (std::int64_t i = 0; i < p->value.numel(); i += stride) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const double lp = half_sq_sum(m.forward(x));
      p->value[i] = orig - eps;
      const double lm = half_sq_sum(m.forward(x));
      p->value[i] = orig;
      const double num = (lp - lm) / (2.0 * eps);
      ASSERT_NEAR(p->grad[i], num, tol)
          << m.kind() << ": grad mismatch for param '" << p->name
          << "' at flat index " << i;
    }
  }
}

}  // namespace t2c::testing
