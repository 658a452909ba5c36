#include "core/key_matrix.hpp"

#include <algorithm>

namespace biq {

namespace {

std::size_t checked_table_count(std::size_t n, unsigned mu) {
  if (mu == 0 || mu > kMaxLutUnit) {
    throw std::invalid_argument("KeyMatrix: mu must be in [1, 16]");
  }
  return table_count(n, mu);
}

/// Packs every row of b into `tables` keys per row at dst. Each key is
/// assembled by shift-or, first element into the most significant bit;
/// a tail group shifts its missing elements in as 0 bits.
template <typename Key>
void pack_keys(const BinaryMatrix& b, unsigned mu, std::size_t tables,
               Key* dst) {
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < b.rows(); ++i) {
    const std::int8_t* row = b.row(i);
    Key* keys = dst + i * tables;
    for (std::size_t t = 0; t < tables; ++t) {
      const std::int8_t* group = row + t * mu;
      const std::size_t len = std::min<std::size_t>(mu, n - t * mu);
      unsigned key = 0;
      for (std::size_t j = 0; j < len; ++j) {
        key = (key << 1) | static_cast<unsigned>(group[j] > 0);
      }
      keys[t] = static_cast<Key>(key << (mu - len));
    }
  }
}

}  // namespace

KeyMatrix::KeyMatrix(const BinaryMatrix& b, unsigned mu)
    : rows_(b.rows()), tables_(checked_table_count(b.cols(), mu)), mu_(mu) {
  const std::size_t count = rows_ * tables_;  // <= rows * cols of b
  if (wide()) {
    data16_ = AlignedBuffer<std::uint16_t>(count);
    pack_keys(b, mu, tables_, data16_.data());
  } else {
    data8_ = AlignedBuffer<std::uint8_t>(count);
    pack_keys(b, mu, tables_, data8_.data());
  }
}

}  // namespace biq
