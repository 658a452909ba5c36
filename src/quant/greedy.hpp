// Greedy binary-coding quantization (network sketching, Guo et al. 2017;
// the paper's Table I "Binary-Coding (Greedy)" rows): each plane takes
// the sign of the running residual with the residual's mean magnitude as
// scale. Rows are independent; they are quantized a row panel at a time
// (quant/row_panel.hpp), each row's scale a double sum in column order.
#pragma once

#include <vector>

#include "quant/binary_codes.hpp"
#include "quant/row_panel.hpp"

namespace biq {

/// Quantizes W (m x n, addressed (row, col)) into `bits` binary planes.
/// Requires bits >= 1 and a non-empty matrix.
[[nodiscard]] BinaryCodes quantize_greedy(const Matrix& w, unsigned bits);

/// Greedy coding of columns [j0, j1) of every row of `panel`, in place:
/// the panel ends holding the residual. Writes the signs of panel row r
/// into planes[q].row(panel.first_row() + r), columns [j0, j1), and its
/// scale into scales[q * kPanelRows + r] (scales holds bits * kPanelRows
/// floats; padded rows get scale 0 and no signs). quantize_greedy and
/// quantize_greedy_grouped share it.
void quantize_greedy_panel(RowPanel& panel, std::size_t j0, std::size_t j1,
                           unsigned bits, std::vector<BinaryMatrix>& planes,
                           float* scales);

}  // namespace biq
