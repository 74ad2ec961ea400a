// Unit tests for the tensor substrate: shapes, indexing, elementwise ops,
// matmul (all transpose combinations, float + integer), reductions.
#include <gtest/gtest.h>

#include "tensor/elementwise.h"
#include "tensor/matmul.h"
#include "tensor/reduce.h"
#include "test_util.h"

namespace t2c {
namespace {

TEST(Tensor, ConstructionAndIndexing) {
  Tensor t({2, 3}, 1.5F);
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(1), 3);
  EXPECT_FLOAT_EQ(t.at(1, 2), 1.5F);
  t.at(1, 2) = -2.0F;
  EXPECT_FLOAT_EQ(t[5], -2.0F);
}

TEST(Tensor, FromRejectsSizeMismatch) {
  EXPECT_THROW(Tensor::from({2, 2}, {1.0F, 2.0F, 3.0F}), Error);
}

TEST(Tensor, AtChecksRankAndBounds) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at(0), Error);     // wrong rank
  EXPECT_THROW(t.at(2, 0), Error);  // out of range
  EXPECT_THROW(t.at(0, -1), Error);
}

TEST(Tensor, ReshapePreservesDataAndChecksCount) {
  Tensor t = Tensor::from({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.reshaped({3, 2});
  EXPECT_FLOAT_EQ(r.at(2, 1), 5.0F);
  EXPECT_THROW(t.reshaped({4, 2}), Error);
}

TEST(Tensor, Select0AndSet0RoundTrip) {
  Tensor t = Tensor::from({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor s = t.select0(1);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.at(1, 1), 7.0F);
  s.fill(9.0F);
  t.set0(0, s);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0), 9.0F);
  EXPECT_FLOAT_EQ(t.at(1, 0, 0), 4.0F);
}

TEST(Tensor, IntFloatConversionRoundsToNearest) {
  Tensor x = Tensor::from({4}, {1.4F, 1.6F, -1.4F, -1.6F});
  ITensor q = to_int(x);
  EXPECT_EQ(q[0], 1);
  EXPECT_EQ(q[1], 2);
  EXPECT_EQ(q[2], -1);
  EXPECT_EQ(q[3], -2);
  Tensor back = to_float(q);
  EXPECT_FLOAT_EQ(back[1], 2.0F);
}

TEST(Elementwise, BinaryOpsAndShapeChecks) {
  Tensor a = Tensor::from({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from({2, 2}, {4, 3, 2, 1});
  EXPECT_FLOAT_EQ(add(a, b)[0], 5.0F);
  EXPECT_FLOAT_EQ(sub(a, b)[3], 3.0F);
  EXPECT_FLOAT_EQ(mul(a, b)[1], 6.0F);
  EXPECT_FLOAT_EQ(div(a, b)[2], 1.5F);
  Tensor c({3});
  EXPECT_THROW(add(a, c), Error);
}

TEST(Elementwise, InPlaceAndAxpy) {
  Tensor a = Tensor::from({3}, {1, 2, 3});
  Tensor b = Tensor::from({3}, {1, 1, 1});
  add_(a, b);
  EXPECT_FLOAT_EQ(a[2], 4.0F);
  axpy_(a, 2.0F, b);
  EXPECT_FLOAT_EQ(a[0], 4.0F);
  mul_scalar_(a, 0.5F);
  EXPECT_FLOAT_EQ(a[0], 2.0F);
}

TEST(Elementwise, ClampAndApply) {
  Tensor a = Tensor::from({4}, {-2, -0.5F, 0.5F, 2});
  Tensor c = clamp(a, -1.0F, 1.0F);
  EXPECT_FLOAT_EQ(c[0], -1.0F);
  EXPECT_FLOAT_EQ(c[3], 1.0F);
  Tensor s = apply(a, [](float v) { return v * v; });
  EXPECT_FLOAT_EQ(s[3], 4.0F);
}

TEST(Elementwise, ScaleBiasNchwIsPerChannel) {
  Tensor x({1, 2, 1, 2}, 1.0F);
  Tensor scale = Tensor::from({2}, {2.0F, 3.0F});
  Tensor bias = Tensor::from({2}, {0.5F, -0.5F});
  Tensor y = scale_bias_nchw(x, scale, bias);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 2.5F);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), 2.5F);
}

TEST(Elementwise, Cat0Concatenates) {
  Tensor a({2, 3}, 1.0F);
  Tensor b({1, 3}, 2.0F);
  Tensor c = cat0({a, b});
  EXPECT_EQ(c.shape(), (Shape{3, 3}));
  EXPECT_FLOAT_EQ(c.at(2, 0), 2.0F);
}

TEST(Elementwise, Transpose2d) {
  Tensor a = Tensor::from({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor t = transpose2d(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.at(2, 1), 5.0F);
}

TEST(Matmul, MatchesHandComputed) {
  Tensor a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0F);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0F);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0F);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0F);
}

TEST(Matmul, TransposeVariantsAgree) {
  Tensor a = testing::random_tensor({4, 5}, 11);
  Tensor b = testing::random_tensor({5, 3}, 12);
  Tensor at = transpose2d(a);
  Tensor bt = transpose2d(b);
  Tensor ref = matmul(a, b);
  EXPECT_LT(max_abs_diff(matmul(at, b, true, false), ref), 1e-5F);
  EXPECT_LT(max_abs_diff(matmul(a, bt, false, true), ref), 1e-5F);
  EXPECT_LT(max_abs_diff(matmul(at, bt, true, true), ref), 1e-5F);
}

TEST(Matmul, InnerDimMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Matmul, BatchedMatchesPerSlice) {
  Tensor a = testing::random_tensor({3, 2, 4}, 21);
  Tensor b = testing::random_tensor({3, 4, 5}, 22);
  Tensor c = bmm(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 5}));
  for (int i = 0; i < 3; ++i) {
    Tensor ci = c.select0(i);
    EXPECT_LT(max_abs_diff(matmul(a.select0(i), b.select0(i)), ci), 1e-5F);
  }
}

TEST(Matmul, BatchedTransposeB) {
  Tensor a = testing::random_tensor({2, 3, 4}, 31);
  Tensor b = testing::random_tensor({2, 5, 4}, 32);
  Tensor c = bmm(a, b, false, true);
  EXPECT_EQ(c.shape(), (Shape{2, 3, 5}));
  Tensor ref = matmul(a.select0(0), transpose2d(b.select0(0)));
  EXPECT_LT(max_abs_diff(c.select0(0), ref), 1e-5F);
}

TEST(Matmul, IntegerMatmulExact) {
  ITensor a = ITensor::from({2, 2}, {100000, -3, 7, 2});
  ITensor b = ITensor::from({2, 2}, {2, 1, 5, -4});
  ITensor c({2, 2});
  gemm_i64(a.data(), b.data(), c.data(), 2, 2, 2, false, false, true);
  EXPECT_EQ(c.at(0, 0), 200000 - 15);
  EXPECT_EQ(c.at(0, 1), 100000 + 12);
}

TEST(Reduce, Statistics) {
  Tensor x = Tensor::from({4}, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(sum(x), 10.0);
  EXPECT_DOUBLE_EQ(mean(x), 2.5);
  EXPECT_NEAR(variance(x), 1.25, 1e-9);
  EXPECT_FLOAT_EQ(min_value(x), 1.0F);
  EXPECT_FLOAT_EQ(max_value(x), 4.0F);
  EXPECT_EQ(argmax(x), 3);
}

TEST(Reduce, ArgmaxRowsTieBreaksLow) {
  Tensor logits = Tensor::from({2, 3}, {1, 3, 3, 5, 2, 1});
  auto pred = argmax_rows(logits);
  EXPECT_EQ(pred[0], 1);
  EXPECT_EQ(pred[1], 0);
}

TEST(Reduce, ChannelMeanVar) {
  Tensor x({2, 2, 1, 2});
  for (std::int64_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  Tensor m, v;
  channel_mean_var(x, m, v);
  EXPECT_NEAR(m[0], 2.5F, 1e-5);  // channel 0 holds {0,1,4,5}
  EXPECT_NEAR(m[1], 4.5F, 1e-5);
  EXPECT_NEAR(v[0], 4.25F, 1e-4);
}

TEST(Reduce, PerChannelMinMax) {
  Tensor w = Tensor::from({2, 3}, {-1, 0, 2, -5, 1, 3});
  Tensor mn, mx;
  per_channel_min_max(w, mn, mx);
  EXPECT_FLOAT_EQ(mn[0], -1.0F);
  EXPECT_FLOAT_EQ(mx[0], 2.0F);
  EXPECT_FLOAT_EQ(mn[1], -5.0F);
  EXPECT_FLOAT_EQ(mx[1], 3.0F);
}

TEST(Reduce, Sparsity) {
  Tensor x = Tensor::from({4}, {0, 1, 0, 2});
  EXPECT_DOUBLE_EQ(sparsity(x), 0.5);
  ITensor q = ITensor::from({4}, {0, 0, 0, 5});
  EXPECT_DOUBLE_EQ(sparsity(q), 0.75);
}

}  // namespace
}  // namespace t2c
