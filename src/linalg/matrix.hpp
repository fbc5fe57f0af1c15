// Dense row-major matrix/vector containers used by the applications.
//
// Deliberately minimal: the paper treats BLAS as a black box (cuBLAS/MKL);
// the reproduction needs correct kernels with known flop counts, not tuned
// ones. All functional app payloads (GEMV, C-means distances, GMM E/M
// steps) run on these types.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace prs::linalg {

/// std::allocator that default-initializes where std::allocator
/// value-initializes: a vector of doubles sized without a fill value is
/// left unset rather than zero-filled.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Selects the Matrix constructor that leaves the elements unset, for a
/// matrix a parallel writer overwrites in full: the pool lanes that write
/// it then touch its pages first, instead of the allocating thread
/// zero-filling them.
struct Uninitialized {};

template <typename T>
class Matrix {
 public:
  using Storage = std::vector<T, DefaultInitAllocator<T>>;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, Uninitialized)
      : rows_(rows), cols_(cols), data_(rows * cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    PRS_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    PRS_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row r (contiguous, cols() elements).
  T* row(std::size_t r) {
    PRS_REQUIRE(r < rows_, "row index out of range");
    return data_.data() + r * cols_;
  }
  const T* row(std::size_t r) const {
    PRS_REQUIRE(r < rows_, "row index out of range");
    return data_.data() + r * cols_;
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  Storage& storage() { return data_; }
  const Storage& storage() const { return data_; }

  bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Storage data_;
};

using MatrixD = Matrix<double>;

}  // namespace prs::linalg
