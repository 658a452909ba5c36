#include "nn/tensor.hpp"

#include <cmath>
#include <stdexcept>

namespace biq::nn {

void copy_into(ConstMatrixView src, MatrixView dst) {
  if (src.rows() != dst.rows() || src.cols() != dst.cols()) {
    throw std::invalid_argument("copy_into: shape mismatch");
  }
  for (std::size_t c = 0; c < src.cols(); ++c) {
    const float* s = src.col(c);
    float* d = dst.col(c);
    for (std::size_t i = 0; i < src.rows(); ++i) d[i] = s[i];
  }
}

void add_into(ConstMatrixView a, ConstMatrixView b, MatrixView dst) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.rows() != dst.rows() ||
      a.cols() != dst.cols()) {
    throw std::invalid_argument("add_into: shape mismatch");
  }
  for (std::size_t c = 0; c < a.cols(); ++c) {
    const float* pa = a.col(c);
    const float* pb = b.col(c);
    float* d = dst.col(c);
    for (std::size_t i = 0; i < a.rows(); ++i) d[i] = pa[i] + pb[i];
  }
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows(), /*zero_fill=*/false);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) t(j, i) = a(i, j);
  }
  return t;
}

Matrix xavier_uniform(std::size_t rows, std::size_t cols, Rng& rng) {
  const float limit = std::sqrt(
      6.0f / static_cast<float>(rows + cols));
  return Matrix::random_uniform(rows, cols, rng, -limit, limit);
}

}  // namespace biq::nn
