// Key matrix K in Z^{m x ceil(n/mu)} (paper Fig. 5): each mu consecutive
// binary weights of a row are bit-packed into one integer key that
// indexes a lookup table. Convention (paper example): the FIRST element
// of the group is the MOST significant bit and bit value 1 encodes +1,
// so {-1, 1, 1, -1} with mu=4 packs to 0110b = 6.
//
// Storage is one dense bitstream for every mu: the plane's sign bits,
// row-major, first element of a row first, n bits per row with no
// padding between rows, each byte filled from its most significant bit.
// Key (row, table) is the mu-bit field starting at bit row * n + table *
// mu, read most significant bit first, so the stream holds m*n/8 bytes
// (rounded up) plus kKeySlackBytes whatever mu is — at mu == 8 with n a
// multiple of 8 it is byte for byte the one-key-per-byte layout. A row's
// tail field (n % mu != 0) runs into the next row's first bits; those
// bits select inputs past n, which the LUT staging zero-pads, so they
// only pick between +0 and -0 contributions. key() masks them to 0 (the
// paper's packing); the kernels read the raw fields. The key matrix is
// precomputed from the quantized weights once and is what inference
// loads from memory — it IS the packed weight storage, no unpack needed.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "matrix/binary_matrix.hpp"
#include "util/aligned_buffer.hpp"

namespace biq {

inline constexpr unsigned kMaxLutUnit = 16;

/// Bytes past the last packed bit. A key read loads 8 bytes from the
/// byte holding the field's first bit, and the GEMV's eight-key read 16,
/// so a read near the end of the stream may run up to 15 bytes past it.
inline constexpr std::size_t kKeySlackBytes = 16;

/// Number of lookup tables for an input size n: ceil(n / mu).
[[nodiscard]] constexpr std::size_t table_count(std::size_t n, unsigned mu) noexcept {
  return (n + mu - 1) / mu;
}

/// The 64 stream bits from bit `bit` on, first bit in the most
/// significant position; the top 57 bits are always valid, so one window
/// serves every field that ends within 57 bits of `bit`. A field of mu
/// bits at offset o into the window is (w << o) >> (64 - mu).
[[nodiscard]] inline std::uint64_t key_window(const std::uint8_t* stream,
                                              std::uint64_t bit) noexcept {
  std::uint64_t w;
  std::memcpy(&w, stream + (bit >> 3), sizeof(w));
  if constexpr (std::endian::native == std::endian::little) {
    w = __builtin_bswap64(w);
  }
  return w << (bit & 7u);
}

class KeyMatrix {
 public:
  KeyMatrix() = default;

  /// Packs binary plane `b` (m x n of {-1,+1}) for LUT-unit mu in
  /// [1, 16].
  KeyMatrix(const BinaryMatrix& b, unsigned mu);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t tables() const noexcept { return tables_; }
  [[nodiscard]] unsigned mu() const noexcept { return mu_; }

  /// The packed bitstream (storage_bytes() long).
  [[nodiscard]] const std::uint8_t* stream() const noexcept {
    return data_.data();
  }
  /// Stream position of key (row, table)'s first bit.
  [[nodiscard]] std::uint64_t bit_offset(std::size_t row,
                                         std::size_t table) const noexcept {
    return std::uint64_t{row} * cols_ + std::uint64_t{table} * mu_;
  }

  /// Key value at (row, table), bits past the row's last input 0.
  [[nodiscard]] unsigned key(std::size_t row, std::size_t table) const noexcept {
    const auto raw = static_cast<unsigned>(
        key_window(stream(), bit_offset(row, table)) >> (64 - mu_));
    const std::size_t past = (table + 1) * mu_ > cols_
                                 ? (table + 1) * mu_ - cols_
                                 : 0;
    return raw & ~((1u << past) - 1u);
  }

  /// Bytes of packed key storage: ceil(m*n/8) + kKeySlackBytes, the
  /// paper's quantized-weight footprint (m*n/8) at every mu.
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return data_.size_bytes();
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t tables_ = 0;
  unsigned mu_ = 0;
  AlignedBuffer<std::uint8_t> data_;
};

}  // namespace biq
