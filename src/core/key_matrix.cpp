#include "core/key_matrix.hpp"

namespace biq {

namespace {

std::size_t checked_table_count(std::size_t n, unsigned mu) {
  if (mu == 0 || mu > kMaxLutUnit) {
    throw std::invalid_argument("KeyMatrix: mu must be in [1, 16]");
  }
  return table_count(n, mu);
}

}  // namespace

KeyMatrix::KeyMatrix(const BinaryMatrix& b, unsigned mu)
    : rows_(b.rows()), cols_(b.cols()),
      tables_(checked_table_count(b.cols(), mu)), mu_(mu) {
  // Rows are contiguous in b and in the stream, so the whole plane packs
  // as one run of m*n sign bits, shift-or into bytes, first element into
  // the most significant bit; the last byte's missing bits and the slack
  // are zero.
  const std::size_t count = rows_ * cols_;
  data_ = AlignedBuffer<std::uint8_t>((count + 7) / 8 + kKeySlackBytes,
                                      /*zero_fill=*/true);
  const std::int8_t* signs = count == 0 ? nullptr : b.row(0);
  std::uint8_t* out = data_.data();
  std::size_t e = 0;
  for (; e + 8 <= count; e += 8) {
    unsigned byte = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      byte = (byte << 1) | static_cast<unsigned>(signs[e + j] > 0);
    }
    *out++ = static_cast<std::uint8_t>(byte);
  }
  if (e < count) {
    unsigned byte = 0;
    for (std::size_t j = e; j < count; ++j) {
      byte = (byte << 1) | static_cast<unsigned>(signs[j] > 0);
    }
    *out = static_cast<std::uint8_t>(byte << (8 - (count - e)));
  }
}

}  // namespace biq
