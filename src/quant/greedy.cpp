#include "quant/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace biq {

void quantize_greedy_panel(RowPanel& panel, std::size_t j0, std::size_t j1,
                           unsigned bits, std::vector<BinaryMatrix>& planes,
                           float* scales) {
  const std::size_t len = j1 - j0;
  const std::size_t i0 = panel.first_row();
  for (unsigned q = 0; q < bits; ++q) {
    double mag[kPanelRows] = {};
    for (std::size_t j = j0; j < j1; ++j) {
      const float* c = panel.col(j);
      for (std::size_t r = 0; r < kPanelRows; ++r) mag[r] += std::fabs(c[r]);
    }
    float alpha[kPanelRows] = {};
    for (std::size_t r = 0; r < kPanelRows; ++r) {
      alpha[r] = static_cast<float>(mag[r] / static_cast<double>(len));
      scales[q * kPanelRows + r] = alpha[r];
    }
    // Columns in blocks of kPanelRows: the block's signs collect in a
    // local square, column by column, and leave it row by row.
    for (std::size_t jb = j0; jb < j1; jb += kPanelRows) {
      const std::size_t nb = std::min(kPanelRows, j1 - jb);
      std::int8_t block[kPanelRows][kPanelRows] = {};  // [column][row]
      for (std::size_t k = 0; k < nb; ++k) {
        // Local copies keep the sweep free of aliasing, so it vectorizes.
        float v[kPanelRows];
        std::memcpy(v, panel.col(jb + k), sizeof v);
        for (std::size_t r = 0; r < kPanelRows; ++r) {
          // 0 or -1 from the comparison, then +1 or -1, in integers
          // rather than a branch per weight; -0.0 is +1.
          const std::int32_t neg = -static_cast<std::int32_t>(v[r] < 0.0f);
          const std::int32_t sign = 1 + 2 * neg;
          block[k][r] = static_cast<std::int8_t>(sign);
          v[r] -= alpha[r] * static_cast<float>(sign);
        }
        std::memcpy(panel.col(jb + k), v, sizeof v);
      }
      for (std::size_t r = 0; r < panel.rows(); ++r) {
        std::int8_t* dst = planes[q].row(i0 + r) + jb;
        for (std::size_t k = 0; k < nb; ++k) dst[k] = block[k][r];
      }
    }
  }
}

BinaryCodes quantize_greedy(const Matrix& w, unsigned bits) {
  if (bits == 0) throw std::invalid_argument("quantize_greedy: bits must be >= 1");
  if (w.rows() == 0 || w.cols() == 0) {
    throw std::invalid_argument("quantize_greedy: empty matrix");
  }
  BinaryCodes out;
  out.rows = w.rows();
  out.cols = w.cols();
  out.bits = bits;
  out.planes.reserve(bits);
  out.alphas.assign(bits, std::vector<float>(w.rows(), 0.0f));
  for (unsigned q = 0; q < bits; ++q) out.planes.emplace_back(w.rows(), w.cols());

  RowPanel panel(w.cols());
  std::vector<float> scales(bits * kPanelRows);
  for (std::size_t i = 0; i < w.rows(); i += kPanelRows) {
    panel.load(w, i);
    quantize_greedy_panel(panel, 0, w.cols(), bits, out.planes, scales.data());
    for (unsigned q = 0; q < bits; ++q) {
      for (std::size_t r = 0; r < panel.rows(); ++r) {
        out.alphas[q][i + r] = scales[q * kPanelRows + r];
      }
    }
  }
  return out;
}

}  // namespace biq
