// Group-wise binary-coding quantization: instead of one scale per output
// row per plane (paper Eq. 1), each row is split into groups of
// `group_size` consecutive inputs with an independent scale per group —
// the refinement the follow-on LUT-GEMM line adopted to recover accuracy
// at very low bit-widths. Smaller groups = lower reconstruction error =
// more scale storage; BiQGEMM supports it natively because lookups
// already happen per mu-sized table and scales can be applied per table
// group (BiqGemm's GroupedBinaryCodes constructor, core/biqgemm.hpp).
#pragma once

#include <vector>

#include "matrix/binary_matrix.hpp"
#include "matrix/matrix.hpp"

namespace biq {

struct GroupedBinaryCodes {
  std::size_t rows = 0;
  std::size_t cols = 0;
  unsigned bits = 0;
  std::size_t group_size = 0;
  std::size_t num_groups = 0;  // ceil(cols / group_size)
  std::vector<BinaryMatrix> planes;
  /// alphas[q][row * num_groups + g] — scale of plane q, row, group g.
  std::vector<std::vector<float>> alphas;

  [[nodiscard]] float alpha(unsigned plane, std::size_t row,
                            std::size_t group) const noexcept {
    return alphas[plane][row * num_groups + group];
  }

  [[nodiscard]] Matrix dequantize() const;

  /// Packed inference storage: bit-planes + one fp32 scale per
  /// (plane, row, group).
  [[nodiscard]] std::size_t packed_storage_bytes() const noexcept {
    const std::size_t plane = rows * ((cols + 7) / 8);
    return bits * (plane + rows * num_groups * sizeof(float));
  }
};

/// Greedy quantization applied independently per (row, group) segment.
/// group_size must be >= 1; the last group may be ragged.
[[nodiscard]] GroupedBinaryCodes quantize_greedy_grouped(const Matrix& w,
                                                         unsigned bits,
                                                         std::size_t group_size);

}  // namespace biq
