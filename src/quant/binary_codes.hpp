// Binary-coding quantization result: q bit-planes B_i in {-1,+1}^{m x n}
// with per-row scale vectors alpha_i in R^m, approximating
//   W  ~=  sum_i diag(alpha_i) * B_i            (paper Eq. 1 / Fig. 2)
// Rows are quantized independently, matching the paper's row-wise scaling.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "matrix/binary_matrix.hpp"
#include "matrix/matrix.hpp"

namespace biq {

/// Writes the rows x cols reconstruction
/// sum_q alpha(q, i, j) * planes[q](i, j) to dst, column-major with
/// leading dimension ld. Each element is summed in fp32 from 0 in plane
/// order. It works in 16 x 16 blocks,
/// a band of 16 rows at a time: each block row reads one contiguous
/// segment of every row-major plane, and each block column is stored as
/// one contiguous run of dst.
template <typename AlphaAt>
void reconstruct_columns(std::size_t rows, std::size_t cols, unsigned bits,
                         const std::vector<BinaryMatrix>& planes,
                         AlphaAt alpha, float* dst, std::size_t ld) {
  constexpr std::size_t kBlock = 16;
  float tile[kBlock][kBlock] = {};  // [row][column] of one block
  for (std::size_t ib = 0; ib < rows; ib += kBlock) {
    const std::size_t mb = std::min(kBlock, rows - ib);
    for (std::size_t jb = 0; jb < cols; jb += kBlock) {
      const std::size_t nb = std::min(kBlock, cols - jb);
      for (std::size_t r = 0; r < mb; ++r) {
        float* acc = tile[r];
        for (std::size_t k = 0; k < nb; ++k) acc[k] = 0.0f;
        for (unsigned q = 0; q < bits; ++q) {
          const std::int8_t* src = planes[q].row(ib + r) + jb;
          for (std::size_t k = 0; k < nb; ++k) {
            acc[k] += alpha(q, ib + r, jb + k) * static_cast<float>(src[k]);
          }
        }
      }
      for (std::size_t k = 0; k < nb; ++k) {
        float* out = dst + (jb + k) * ld + ib;
        for (std::size_t r = 0; r < mb; ++r) out[r] = tile[r][k];
      }
    }
  }
}

struct BinaryCodes {
  std::size_t rows = 0;
  std::size_t cols = 0;
  unsigned bits = 0;
  /// planes[q] is the q-th binary matrix B_q (rows x cols).
  std::vector<BinaryMatrix> planes;
  /// alphas[q][i] is the scale of plane q for output row i.
  std::vector<std::vector<float>> alphas;

  /// Reconstructs the dense approximation sum_q alpha_q o B_q (see
  /// reconstruct_columns).
  [[nodiscard]] Matrix dequantize() const {
    Matrix w(rows, cols, /*zero_fill=*/false);
    reconstruct_columns(
        rows, cols, bits, planes,
        [this](unsigned q, std::size_t i, std::size_t) { return alphas[q][i]; },
        w.data(), w.ld());
    return w;
  }

  /// Packed storage the paper's Table II accounts for: bits planes of
  /// ceil(n/8) bytes per row, plus one fp32 scale per row per plane.
  [[nodiscard]] std::size_t packed_storage_bytes() const noexcept {
    const std::size_t plane = rows * ((cols + 7) / 8);
    return bits * (plane + rows * sizeof(float));
  }
};

}  // namespace biq
