// Quantization-quality metrics used by tests and the Table I bench.
#pragma once

#include "matrix/matrix.hpp"

namespace biq {

/// Mean squared element-wise error.
[[nodiscard]] double quant_mse(const Matrix& original, const Matrix& reconstructed);

/// Signal-to-quantization-noise ratio in dB:
/// 10 log10(||orig||^2 / ||orig - recon||^2); returns +inf for exact.
[[nodiscard]] double sqnr_db(const Matrix& original, const Matrix& reconstructed);

}  // namespace biq
