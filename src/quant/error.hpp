// Quantization-quality metrics used by tests and the Table I bench.
#pragma once

#include "matrix/matrix.hpp"
#include "quant/binary_codes.hpp"

namespace biq {

/// Mean squared element-wise error.
[[nodiscard]] double quant_mse(const Matrix& original, const Matrix& reconstructed);

/// rel_fro_error(codes.dequantize(), w), bit for bit (the same fp32
/// reconstruction, the same column-order double sums), without building
/// the dense reconstruction: it is made a block of columns at a time.
/// +inf when the shapes differ.
[[nodiscard]] double rel_fro_error(const BinaryCodes& codes, const Matrix& w);

/// Signal-to-quantization-noise ratio in dB:
/// 10 log10(||orig||^2 / ||orig - recon||^2); returns +inf for exact.
[[nodiscard]] double sqnr_db(const Matrix& original, const Matrix& reconstructed);

}  // namespace biq
