// Fixed-point arithmetic tests: round-trip error bounds, saturation, the
// MulQuant datapath against real arithmetic, and parameterized sweeps over
// formats.
#include <gtest/gtest.h>

#include <cmath>

#include "deploy/int_ops.h"
#include "util/check.h"
#include "util/fixed_point.h"
#include "util/rng.h"

namespace t2c {
namespace {

TEST(FixedPoint, BasicRoundTrip) {
  FixedPointFormat fmt{4, 12};
  EXPECT_EQ(to_fixed(1.0, fmt), 4096);
  EXPECT_EQ(to_fixed(-1.0, fmt), -4096);
  EXPECT_DOUBLE_EQ(from_fixed(4096, fmt), 1.0);
  EXPECT_NEAR(fixed_round(0.3, fmt), 0.3, fmt.resolution() / 2 + 1e-12);
}

TEST(FixedPoint, Saturation) {
  FixedPointFormat fmt{4, 12};  // range [-8, 8)
  EXPECT_EQ(to_fixed(100.0, fmt), fmt.max_raw());
  EXPECT_EQ(to_fixed(-100.0, fmt), fmt.min_raw());
  EXPECT_NEAR(from_fixed(fmt.max_raw(), fmt), 8.0, 2e-3);
}

TEST(FixedPoint, ResolutionMatchesFracBits) {
  EXPECT_DOUBLE_EQ((FixedPointFormat{4, 12}).resolution(), 1.0 / 4096.0);
  EXPECT_DOUBLE_EQ((FixedPointFormat{13, 3}).resolution(), 1.0 / 8.0);
}

class FixedPointFormats : public ::testing::TestWithParam<FixedPointFormat> {};

TEST_P(FixedPointFormats, RoundTripErrorBounded) {
  const FixedPointFormat fmt = GetParam();
  Rng rng(3);
  const double hi = from_fixed(fmt.max_raw(), fmt);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(static_cast<float>(-hi * 0.99),
                                 static_cast<float>(hi * 0.99));
    EXPECT_LE(std::fabs(fixed_round(x, fmt) - x), fmt.resolution() / 2 + 1e-12)
        << "x=" << x << " fmt=(" << fmt.int_bits << "," << fmt.frac_bits << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FixedPointFormats,
                         ::testing::Values(FixedPointFormat{4, 12},
                                           FixedPointFormat{3, 13},
                                           FixedPointFormat{12, 4},
                                           FixedPointFormat{8, 8},
                                           FixedPointFormat{2, 6}));

TEST(FixedPoint, MulShiftMatchesRealArithmetic) {
  // The datapath that runs: a per-tensor MulQuant, bias 0, whose clamp
  // window is far wider than any product here.
  FixedPointFormat fmt{4, 12};
  Rng rng(5);
  constexpr std::int64_t kWide = std::int64_t{1} << 40;
  for (int i = 0; i < 200; ++i) {
    const double m = rng.uniform(0.001F, 6.0F);
    const std::int64_t acc = rng.randint(-100000, 100000);
    const std::int64_t raw = to_fixed(m, fmt);
    const MulQuantOp mq({raw}, {0}, fmt.frac_bits, -kWide, kWide,
                        MqLayout::kPerTensor);
    const ITensor x = ITensor::from({1}, {acc});
    const std::int64_t got = mq.run({&x})[0];
    const double want = m * static_cast<double>(acc);
    // Error = multiplier quantization + final rounding.
    const double bound =
        std::fabs(acc) * fmt.resolution() / 2 + 1.0;
    EXPECT_LE(std::fabs(static_cast<double>(got) - want), bound)
        << "m=" << m << " acc=" << acc;
  }
}

TEST(FixedPoint, VectorHelper) {
  FixedPointFormat fmt{4, 12};
  auto raws = to_fixed(std::vector<double>{0.5, -0.25}, fmt);
  EXPECT_EQ(raws[0], 2048);
  EXPECT_EQ(raws[1], -1024);
}

TEST(FixedPoint, InvalidFormatsRejected) {
  EXPECT_THROW(to_fixed(1.0, FixedPointFormat{0, 0}), Error);
  EXPECT_THROW(to_fixed(1.0, FixedPointFormat{60, 40}), Error);
}

}  // namespace
}  // namespace t2c
