// A {-1,+1} matrix stored one int8 per element, row-major — the logical
// form of one binary-coding bit-plane before packing. Reference kernels
// and the quantizers work on this form; the packed forms (word-packed
// bits for XNOR/unpack baselines, mu-bit keys for BiQGEMM) are derived
// from it.
#pragma once

#include <cstdint>
#include <cstddef>

#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace biq {

class Matrix;

class BinaryMatrix {
 public:
  BinaryMatrix() = default;

  /// rows x cols, initialized to +1. Throws std::length_error when
  /// rows * cols overflows size_t.
  BinaryMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols),
        data_(checked_size_mul(rows, cols, "BinaryMatrix")) {
    data_.fill(1);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// Values are strictly -1 or +1.
  std::int8_t& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[i * cols_ + j];
  }
  std::int8_t operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }

  [[nodiscard]] std::int8_t* row(std::size_t i) noexcept {
    return data_.data() + i * cols_;
  }
  [[nodiscard]] const std::int8_t* row(std::size_t i) const noexcept {
    return data_.data() + i * cols_;
  }

  /// Uniform random signs (deterministic via rng).
  static BinaryMatrix random(std::size_t rows, std::size_t cols, Rng& rng);

  /// Element-wise sign of a row-major view of a float matrix
  /// (sign(0) := +1, matching the quantizers).
  static BinaryMatrix sign_of(const Matrix& reference_row_major);

  /// Materializes as fp32 (row i, col j) = value, for reference GEMM.
  [[nodiscard]] Matrix to_float_rowmajor_as_colmajor() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedBuffer<std::int8_t> data_;
};

}  // namespace biq
