// Multi-bit integer weight quantization for the grouped-LUT (T-MAC
// style) engine. Unlike quant/quantize.hpp — which decomposes weights
// into q binary (+1/-1) planes with per-plane scales, the paper's
// binary-coding scheme — this emits ONE signed integer code per weight
// at 1-4 bits with a per-row scale:
//
//   w(i, k)  ~=  scales[i] * codes[i * cols + k]
//
// Codes use the full two's-complement range of the bit width (e.g.
// [-8, 7] at 4 bits, [-2, 1] at 2 bits; 1 bit is the symmetric ternary
// special case [-1, 1]), so they sign-extend directly from the packed
// nibble storage the tmac-lut engine indexes its activation tables
// with. `storage_bits` is the nibble width codes are PACKED at: codes
// of 1-2 bits share a nibble in pairs (storage 2), 3-4-bit codes take
// a whole nibble (storage 4) — a 3-bit code stored at width 4 is
// exact, it just leaves one level unused.
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/matrix.hpp"

namespace biq {

struct LowBitQuantized {
  std::size_t rows = 0;
  std::size_t cols = 0;
  /// Quantization depth the codes were rounded at (1..4).
  unsigned bits = 4;
  /// Packed width: 2 when bits <= 2, else 4.
  unsigned storage_bits = 4;
  /// Per-row scale: w(i,k) ~= scales[i] * codes[i*cols + k].
  std::vector<float> scales;
  /// Row-major signed codes in the two's-complement range of `bits`.
  std::vector<std::int8_t> codes;

  [[nodiscard]] Matrix dequantize() const;
};

/// Symmetric per-row quantization to `bits` in [1, 4]: scale_i =
/// max|w(i,:)| / 2^(bits-1) (or max|w| at 1 bit; 1 for an all-zero
/// row), codes = clamp(round(w / scale), -2^(bits-1), 2^(bits-1)-1).
/// The single element at exactly +max saturates to the top positive
/// level — the full negative range is what buys the extra level.
/// Throws std::invalid_argument for bits outside [1, 4].
[[nodiscard]] LowBitQuantized quantize_lowbit(const Matrix& w, unsigned bits);

/// Symmetric int8 quantization of one activation column; returns the
/// scale (max|x| / 127, or 1 for an all-zero column). A column holding
/// any NaN or Inf gets a NaN scale and all-zero codes, so every output
/// the column feeds is NaN. The one activation quantizer of the
/// int8-activation engines (int8, tmac-lut), so their grids agree.
float quantize_column_int8(const float* src, std::size_t n,
                           std::int8_t* dst) noexcept;

}  // namespace biq
