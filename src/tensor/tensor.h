// Dense row-major tensor with value semantics.
//
// This is the numerical substrate for the whole toolkit. Two element types
// are used throughout:
//   Tensor  = TensorT<float>        — training / fake-quantized path
//   ITensor = TensorT<std::int64_t> — integer-only deployment path
//
// Design notes (C++ Core Guidelines):
//  * value semantics, moves are cheap (vector steal); no shared mutable state
//  * bounds/shape violations throw t2c::Error via check()
//  * indexing overloads for rank 1-4 avoid variadic overhead in hot loops;
//    flat access via data()/operator[] for kernels.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "util/check.h"

namespace t2c {

using Shape = std::vector<std::int64_t>;

/// Human-readable "[2, 3, 4]" form for error messages.
std::string shape_str(const Shape& shape);

/// Product of all dims (1 for an empty shape = scalar-like usage).
std::int64_t shape_numel(const Shape& shape);

template <typename T>
class TensorT {
 public:
  using value_type = T;

  TensorT() = default;

  /// Allocates a tensor of the given shape, filled with `fill`.
  explicit TensorT(Shape shape, T fill = T{})
      : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {
    for (auto d : shape_) check(d >= 0, "negative dimension in shape");
  }

  /// Adopts existing data; size must match the shape product.
  static TensorT from(Shape shape, std::vector<T> data) {
    check(shape_numel(shape) == static_cast<std::int64_t>(data.size()),
          "TensorT::from: data size does not match shape " + shape_str(shape));
    TensorT t;
    t.shape_ = std::move(shape);
    t.data_ = std::move(data);
    return t;
  }

  const Shape& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  std::int64_t size(int dim) const {
    check_index(dim >= 0 && dim < rank(), "size(): dim out of range", dim);
    return shape_[static_cast<std::size_t>(dim)];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::vector<T>& vec() { return data_; }
  const std::vector<T>& vec() const { return data_; }

  T& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  const T& operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  // Rank-checked multi-dim access (debug-friendly; kernels use flat access).
  T& at(std::int64_t i) { return data_[idx1(i)]; }
  const T& at(std::int64_t i) const { return data_[idx1(i)]; }
  T& at(std::int64_t i, std::int64_t j) { return data_[idx2(i, j)]; }
  const T& at(std::int64_t i, std::int64_t j) const { return data_[idx2(i, j)]; }
  T& at(std::int64_t i, std::int64_t j, std::int64_t k) {
    return data_[idx3(i, j, k)];
  }
  const T& at(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return data_[idx3(i, j, k)];
  }
  T& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) {
    return data_[idx4(i, j, k, l)];
  }
  const T& at(std::int64_t i, std::int64_t j, std::int64_t k,
              std::int64_t l) const {
    return data_[idx4(i, j, k, l)];
  }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }
  void zero() { fill(T{}); }

  /// Returns a copy viewed under a new shape with equal element count.
  TensorT reshaped(Shape new_shape) const {
    check(shape_numel(new_shape) == numel(),
          "reshaped: element count mismatch " + shape_str(shape_) + " -> " +
              shape_str(new_shape));
    TensorT t = *this;
    t.shape_ = std::move(new_shape);
    return t;
  }

  /// In-place reshape (same element count). Copy-assigns the shape, so a
  /// tensor whose shape storage is large enough does not allocate.
  void reshape(const Shape& new_shape) {
    check(shape_numel(new_shape) == numel(),
          "reshape: element count mismatch " + shape_str(shape_) + " -> " +
              shape_str(new_shape));
    shape_ = new_shape;
  }

  /// Copy of slice `i` along dim 0 (shape = shape()[1:]).
  TensorT select0(std::int64_t i) const {
    check(rank() >= 1, "select0 on scalar tensor");
    check_index(i >= 0 && i < shape_[0], "select0: index out of range", i);
    const std::int64_t stride = numel() / shape_[0];
    TensorT out(shape_.size() > 1 ? Shape(shape_.begin() + 1, shape_.end())
                                  : Shape{1});
    std::copy(data_.begin() + i * stride, data_.begin() + (i + 1) * stride,
              out.data_.begin());
    return out;
  }

  /// Writes `t` into slice `i` along dim 0.
  void set0(std::int64_t i, const TensorT& t) {
    check(rank() >= 1, "set0 on scalar tensor");
    check_index(i >= 0 && i < shape_[0], "set0: index out of range", i);
    const std::int64_t stride = numel() / shape_[0];
    check(t.numel() == stride, "set0: slice element count mismatch");
    std::copy(t.data_.begin(), t.data_.end(), data_.begin() + i * stride);
  }

  bool same_shape(const TensorT& o) const { return shape_ == o.shape_; }

 private:
  // The rank diagnostics are composed only on failure: at() runs per
  // element in set-up loops, so the success path must not allocate.
  std::size_t idx1(std::int64_t i) const {
    if (rank() != 1) {
      fail("at(i) on rank-" + std::to_string(rank()) + " tensor");
    }
    check_index(i >= 0 && i < shape_[0], "index 0 out of range", i);
    return static_cast<std::size_t>(i);
  }
  std::size_t idx2(std::int64_t i, std::int64_t j) const {
    if (rank() != 2) {
      fail("at(i,j) on rank-" + std::to_string(rank()) + " tensor");
    }
    check_index(i >= 0 && i < shape_[0], "index 0 out of range", i);
    check_index(j >= 0 && j < shape_[1], "index 1 out of range", j);
    return static_cast<std::size_t>(i * shape_[1] + j);
  }
  std::size_t idx3(std::int64_t i, std::int64_t j, std::int64_t k) const {
    if (rank() != 3) {
      fail("at(i,j,k) on rank-" + std::to_string(rank()) + " tensor");
    }
    check_index(i >= 0 && i < shape_[0], "index 0 out of range", i);
    check_index(j >= 0 && j < shape_[1], "index 1 out of range", j);
    check_index(k >= 0 && k < shape_[2], "index 2 out of range", k);
    return static_cast<std::size_t>((i * shape_[1] + j) * shape_[2] + k);
  }
  std::size_t idx4(std::int64_t i, std::int64_t j, std::int64_t k,
                   std::int64_t l) const {
    if (rank() != 4) {
      fail("at(i,j,k,l) on rank-" + std::to_string(rank()) + " tensor");
    }
    check_index(i >= 0 && i < shape_[0], "index 0 out of range", i);
    check_index(j >= 0 && j < shape_[1], "index 1 out of range", j);
    check_index(k >= 0 && k < shape_[2], "index 2 out of range", k);
    check_index(l >= 0 && l < shape_[3], "index 3 out of range", l);
    return static_cast<std::size_t>(
        ((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l);
  }

  Shape shape_;
  std::vector<T> data_;
};

using Tensor = TensorT<float>;
using ITensor = TensorT<std::int64_t>;

/// Element-type conversions between the float and integer worlds.
ITensor to_int(const Tensor& x);          ///< round-to-nearest-even per element
Tensor to_float(const ITensor& x);

}  // namespace t2c
