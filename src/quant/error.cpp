#include "quant/error.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/aligned_buffer.hpp"

namespace biq {

double quant_mse(const Matrix& original, const Matrix& reconstructed) {
  double err = 0.0;
  const std::size_t count = original.rows() * original.cols();
  if (count == 0) return 0.0;
  for (std::size_t j = 0; j < original.cols(); ++j) {
    for (std::size_t i = 0; i < original.rows(); ++i) {
      const double d = static_cast<double>(original(i, j)) - reconstructed(i, j);
      err += d * d;
    }
  }
  return err / static_cast<double>(count);
}

double rel_fro_error(const BinaryCodes& codes, const Matrix& w) {
  if (codes.rows != w.rows() || codes.cols != w.cols()) {
    return std::numeric_limits<double>::infinity();
  }
  constexpr std::size_t kBlock = 64;  // one cache line of each plane row
  const std::size_t m = w.rows();
  AlignedBuffer<float> recon(checked_size_mul(m, kBlock, "rel_fro_error"));
  // Both sums run in rel_fro_error's and fro_norm's column order; they
  // share one pass so their dependency chains overlap.
  double diff = 0.0;
  double norm = 0.0;
  for (std::size_t j0 = 0; j0 < w.cols(); j0 += kBlock) {
    const std::size_t nb = std::min(kBlock, w.cols() - j0);
    codes.reconstruct(j0, nb, recon.data(), m);
    for (std::size_t k = 0; k < nb; ++k) {
      const float* a = recon.data() + k * m;
      const float* b = w.col(j0 + k);
      for (std::size_t i = 0; i < m; ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        diff += d * d;
        norm += static_cast<double>(b[i]) * b[i];
      }
    }
  }
  return std::sqrt(diff) / std::max(std::sqrt(norm), 1e-12);
}

double sqnr_db(const Matrix& original, const Matrix& reconstructed) {
  double signal = 0.0;
  double noise = 0.0;
  for (std::size_t j = 0; j < original.cols(); ++j) {
    for (std::size_t i = 0; i < original.rows(); ++i) {
      const double s = original(i, j);
      const double d = s - reconstructed(i, j);
      signal += s * s;
      noise += d * d;
    }
  }
  if (noise == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(signal / noise);
}

}  // namespace biq
