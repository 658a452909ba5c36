// Column-major fp32 matrix. Activations X (n x b) and outputs Y (m x b)
// are column-major throughout the library: one batch column is contiguous,
// which is what both the LUT builder (per-column sub-vectors) and the
// dense GEMM baselines want.
#pragma once

#include <cstddef>
#include <string>

#include "matrix/view.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace biq {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, column-major, leading dimension = rows (dense).
  /// Throws std::length_error when rows * cols overflows size_t.
  Matrix(std::size_t rows, std::size_t cols, bool zero_fill = true)
      : rows_(rows), cols_(cols), ld_(rows),
        data_(checked_size_mul(rows, cols, "Matrix"), zero_fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t ld() const noexcept { return ld_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_ * cols_; }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }

  [[nodiscard]] float* col(std::size_t j) noexcept { return data_.data() + j * ld_; }
  [[nodiscard]] const float* col(std::size_t j) const noexcept {
    return data_.data() + j * ld_;
  }

  float& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[j * ld_ + i];
  }
  float operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[j * ld_ + i];
  }

  void set_zero() noexcept { data_.fill(0.0f); }
  void fill(float v) noexcept { data_.fill(v); }

  /// Non-owning views (see matrix/view.hpp). The Matrix must outlive
  /// every use of a view taken from it.
  [[nodiscard]] MatrixView view() noexcept { return {data(), rows_, cols_, ld_}; }
  [[nodiscard]] ConstMatrixView view() const noexcept {
    return {data(), rows_, cols_, ld_};
  }
  /// Columns [c0, c0+ncols) — one batch slice, zero copies.
  [[nodiscard]] MatrixView col_block(std::size_t c0, std::size_t ncols) noexcept {
    return view().col_block(c0, ncols);
  }
  [[nodiscard]] ConstMatrixView col_block(std::size_t c0,
                                          std::size_t ncols) const noexcept {
    return view().col_block(c0, ncols);
  }
  /// Rows [r0, r0+nrows) x cols [c0, c0+ncols) — strided (ld stays rows()).
  [[nodiscard]] MatrixView block(std::size_t r0, std::size_t nrows,
                                 std::size_t c0, std::size_t ncols) noexcept {
    return view().block(r0, nrows, c0, ncols);
  }
  [[nodiscard]] ConstMatrixView block(std::size_t r0, std::size_t nrows,
                                      std::size_t c0,
                                      std::size_t ncols) const noexcept {
    return view().block(r0, nrows, c0, ncols);
  }

  /// Deterministic random factories.
  static Matrix random_uniform(std::size_t rows, std::size_t cols, Rng& rng,
                               float lo = -1.0f, float hi = 1.0f);
  static Matrix random_normal(std::size_t rows, std::size_t cols, Rng& rng,
                              float mean = 0.0f, float stddev = 1.0f);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
  AlignedBuffer<float> data_;
};

inline ConstMatrixView::ConstMatrixView(const Matrix& m) noexcept
    : ConstMatrixView(m.data(), m.rows(), m.cols(), m.ld()) {}

inline MatrixView::MatrixView(Matrix& m) noexcept
    : MatrixView(m.data(), m.rows(), m.cols(), m.ld()) {}

/// max_ij |a_ij - b_ij|; matrices must have identical shape.
[[nodiscard]] float max_abs_diff(const Matrix& a, const Matrix& b);

/// Relative Frobenius-norm error ||a-b||_F / max(||b||_F, eps).
[[nodiscard]] double rel_fro_error(const Matrix& a, const Matrix& b);

/// True when shapes match and every element agrees within atol + rtol*|b|.
[[nodiscard]] bool allclose(const Matrix& a, const Matrix& b,
                            float rtol = 1e-4f, float atol = 1e-5f);

/// Frobenius norm.
[[nodiscard]] double fro_norm(const Matrix& a);

/// Short "rows x cols" description for error messages.
[[nodiscard]] std::string shape_str(const Matrix& a);

}  // namespace biq
