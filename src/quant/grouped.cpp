#include "quant/grouped.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "quant/binary_codes.hpp"
#include "quant/greedy.hpp"

namespace biq {

Matrix GroupedBinaryCodes::dequantize() const {
  Matrix w(rows, cols, /*zero_fill=*/false);
  reconstruct_columns(
      rows, cols, bits, planes,
      [this](unsigned q, std::size_t i, std::size_t j) {
        return alpha(q, i, j / group_size);
      },
      w.data(), w.ld());
  return w;
}

GroupedBinaryCodes quantize_greedy_grouped(const Matrix& w, unsigned bits,
                                           std::size_t group_size) {
  if (bits == 0) {
    throw std::invalid_argument("quantize_greedy_grouped: bits must be >= 1");
  }
  if (group_size == 0) {
    throw std::invalid_argument("quantize_greedy_grouped: group_size must be >= 1");
  }
  if (w.rows() == 0 || w.cols() == 0) {
    throw std::invalid_argument("quantize_greedy_grouped: empty matrix");
  }

  GroupedBinaryCodes out;
  out.rows = w.rows();
  out.cols = w.cols();
  out.bits = bits;
  out.group_size = group_size;
  out.num_groups = (w.cols() + group_size - 1) / group_size;
  out.planes.reserve(bits);
  for (unsigned q = 0; q < bits; ++q) out.planes.emplace_back(w.rows(), w.cols());
  out.alphas.assign(bits, std::vector<float>(w.rows() * out.num_groups, 0.0f));

  RowPanel panel(w.cols());
  std::vector<float> scales(bits * kPanelRows);
  for (std::size_t i = 0; i < w.rows(); i += kPanelRows) {
    panel.load(w, i);
    for (std::size_t g = 0; g < out.num_groups; ++g) {
      const std::size_t j0 = g * group_size;
      const std::size_t j1 = std::min(w.cols(), j0 + group_size);
      quantize_greedy_panel(panel, j0, j1, bits, out.planes, scales.data());
      for (unsigned q = 0; q < bits; ++q) {
        for (std::size_t r = 0; r < panel.rows(); ++r) {
          out.alphas[q][(i + r) * out.num_groups + g] =
              scales[q * kPanelRows + r];
        }
      }
    }
  }
  return out;
}

}  // namespace biq
