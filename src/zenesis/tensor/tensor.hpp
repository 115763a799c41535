#pragma once
// Dense row-major float32 tensor.
//
// Deliberately minimal: contiguous storage, up to 4 dimensions, no
// broadcasting views. The surrogate foundation models (GroundingDetector,
// SamModel) are small enough that explicit loops over a simple container
// are clearer and faster to maintain than a general strided tensor, and
// every kernel that matters for throughput (matmul, attention) has a
// dedicated blocked implementation in ops.hpp.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace zenesis::tensor {

/// Shape of a tensor; up to 4 dimensions are used by the library.
using Shape = std::vector<std::int64_t>;

/// Contiguous row-major float tensor.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-initialized tensor with the given shape.
  explicit Tensor(Shape shape);

  /// Allocates and fills from `values`; `values.size()` must equal the
  /// shape's element count.
  Tensor(Shape shape, std::vector<float> values);

  /// Convenience literal constructor for tests: Tensor({2,2}, {1,2,3,4}).
  Tensor(std::initializer_list<std::int64_t> shape, std::vector<float> values);

  const Shape& shape() const noexcept { return shape_; }
  std::int64_t dim(std::size_t i) const {
    assert(i < shape_.size());
    return shape_[i];
  }
  std::size_t rank() const noexcept { return shape_.size(); }
  std::int64_t numel() const noexcept { return numel_; }
  bool empty() const noexcept { return numel_ == 0; }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::span<float> flat() noexcept { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const noexcept {
    return {data_.data(), data_.size()};
  }

  // Indexed element access (asserts bounds in debug builds).
  float& at(std::int64_t i) { return data_[check(i)]; }
  float at(std::int64_t i) const { return data_[check(i)]; }
  float& at(std::int64_t i, std::int64_t j) {
    return data_[check(i * shape_[1] + j)];
  }
  float at(std::int64_t i, std::int64_t j) const {
    return data_[check(i * shape_[1] + j)];
  }
  float& at(std::int64_t i, std::int64_t j, std::int64_t k) {
    return data_[check((i * shape_[1] + j) * shape_[2] + k)];
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return data_[check((i * shape_[1] + j) * shape_[2] + k)];
  }
  float& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) {
    return data_[check(((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l)];
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k,
           std::int64_t l) const {
    return data_[check(((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l)];
  }

  /// Pointer to the start of row `i` of a rank-2 tensor.
  float* row(std::int64_t i) {
    assert(rank() == 2);
    return data_.data() + i * shape_[1];
  }
  const float* row(std::int64_t i) const {
    assert(rank() == 2);
    return data_.data() + i * shape_[1];
  }

  /// Returns a copy reinterpreted with a new shape of equal element count.
  Tensor reshaped(Shape new_shape) const;

  /// Fills every element with `v`.
  void fill(float v);

  static std::int64_t count(const Shape& s);

 private:
  std::size_t check(std::int64_t idx) const {
    assert(idx >= 0 && idx < numel_);
    return static_cast<std::size_t>(idx);
  }

  Shape shape_;
  std::int64_t numel_ = 0;
  std::vector<float> data_;
};

}  // namespace zenesis::tensor
