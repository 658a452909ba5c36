// Row panels: how the binary-coding quantizers read rows out of a
// column-major Matrix. A panel holds kPanelRows consecutive rows,
// gathered one contiguous kPanelRows-float column segment at a time, and
// keeps them column-major with leading dimension kPanelRows: a sweep
// over the columns advances every row of the panel at once, so per-row
// running sums stay in column order while the work across rows
// vectorizes. A panel at the bottom edge of the matrix pads its missing
// rows with zeros; callers discard their results.
#pragma once

#include <algorithm>
#include <cstddef>

#include "matrix/matrix.hpp"
#include "util/aligned_buffer.hpp"

namespace biq {

inline constexpr std::size_t kPanelRows = 16;

class RowPanel {
 public:
  explicit RowPanel(std::size_t cols)
      : cols_(cols), data_(checked_size_mul(kPanelRows, cols, "RowPanel")) {}

  /// Gathers rows [i0, i0 + rows()) of w; w has the panel's column count.
  void load(const Matrix& w, std::size_t i0) {
    i0_ = i0;
    rows_ = std::min(kPanelRows, w.rows() - i0);
    for (std::size_t j = 0; j < cols_; ++j) {
      const float* src = w.col(j) + i0;
      float* dst = col(j);
      std::size_t r = 0;
      for (; r < rows_; ++r) dst[r] = src[r];
      for (; r < kPanelRows; ++r) dst[r] = 0.0f;
    }
  }

  /// First matrix row and number of real rows of the last load().
  [[nodiscard]] std::size_t first_row() const noexcept { return i0_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

  /// kPanelRows values of column j, panel row r at offset r.
  [[nodiscard]] float* col(std::size_t j) noexcept {
    return data_.data() + j * kPanelRows;
  }

  /// Copies panel row r (all columns) to dst.
  void copy_row(std::size_t r, float* dst) const noexcept {
    for (std::size_t j = 0; j < cols_; ++j) dst[j] = data_[j * kPanelRows + r];
  }

 private:
  std::size_t cols_;
  std::size_t i0_ = 0;
  std::size_t rows_ = 0;
  AlignedBuffer<float> data_;
};

}  // namespace biq
