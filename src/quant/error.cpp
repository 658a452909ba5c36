#include "quant/error.hpp"

#include <cmath>
#include <limits>

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
