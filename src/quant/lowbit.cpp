#include "quant/lowbit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace biq {

Matrix LowBitQuantized::dequantize() const {
  Matrix out(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < cols; ++k) {
      out(i, k) = scales[i] * static_cast<float>(codes[i * cols + k]);
    }
  }
  return out;
}

LowBitQuantized quantize_lowbit(const Matrix& w, unsigned bits) {
  if (bits < 1 || bits > 4) {
    throw std::invalid_argument("quantize_lowbit: bits must be in [1, 4]");
  }
  LowBitQuantized q;
  q.rows = w.rows();
  q.cols = w.cols();
  q.bits = bits;
  q.storage_bits = bits <= 2 ? 2 : 4;
  q.scales.resize(q.rows);
  q.codes.resize(q.rows * q.cols);

  // 1 bit is symmetric ternary {-1, 0, 1}; wider bits use the full
  // two's-complement range with one extra negative level.
  const int qneg = bits == 1 ? -1 : -(1 << (bits - 1));
  const int qpos = bits == 1 ? 1 : (1 << (bits - 1)) - 1;
  const float divisor = bits == 1 ? 1.0f : static_cast<float>(1 << (bits - 1));

  for (std::size_t i = 0; i < q.rows; ++i) {
    float max_abs = 0.0f;
    for (std::size_t k = 0; k < q.cols; ++k) {
      max_abs = std::max(max_abs, std::fabs(w(i, k)));
    }
    const float scale = max_abs > 0.0f ? max_abs / divisor : 1.0f;
    const float inv = 1.0f / scale;
    q.scales[i] = scale;
    for (std::size_t k = 0; k < q.cols; ++k) {
      const int v = static_cast<int>(std::lround(w(i, k) * inv));
      q.codes[i * q.cols + k] = static_cast<std::int8_t>(std::clamp(v, qneg, qpos));
    }
  }
  return q;
}

float quantize_column_int8(const float* src, std::size_t n,
                           std::int8_t* dst) noexcept {
  float max_abs = 0.0f;
  bool finite = true;
  for (std::size_t k = 0; k < n; ++k) {
    const float a = std::fabs(src[k]);
    max_abs = std::max(max_abs, a);
    finite &= a <= std::numeric_limits<float>::max();  // false for NaN/Inf
  }
  if (!finite) {
    std::fill_n(dst, n, std::int8_t{0});
    return std::numeric_limits<float>::quiet_NaN();
  }
  const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  const float inv = 1.0f / scale;
  for (std::size_t k = 0; k < n; ++k) {
    const int v = static_cast<int>(std::lround(src[k] * inv));
    dst[k] = static_cast<std::int8_t>(std::clamp(v, -127, 127));
  }
  return scale;
}

}  // namespace biq
