#include <gtest/gtest.h>

#include "core/key_matrix.hpp"
#include "util/rng.hpp"

namespace biq {
namespace {

TEST(KeyMatrix, PaperPackingExample) {
  // {-1, 1, 1, -1} -> 0110b = 6 (paper Fig. 5).
  BinaryMatrix b(1, 4);
  b(0, 0) = -1;
  b(0, 1) = 1;
  b(0, 2) = 1;
  b(0, 3) = -1;
  const KeyMatrix k(b, 4);
  EXPECT_EQ(k.tables(), 1u);
  EXPECT_EQ(k.key(0, 0), 6u);
}

TEST(KeyMatrix, FirstElementIsMsb) {
  BinaryMatrix b(1, 4);
  b(0, 0) = 1;
  b(0, 1) = -1;
  b(0, 2) = -1;
  b(0, 3) = -1;
  const KeyMatrix k(b, 4);
  EXPECT_EQ(k.key(0, 0), 8u);  // 1000b
}

TEST(KeyMatrix, TableCountFormula) {
  EXPECT_EQ(table_count(12, 4), 3u);
  EXPECT_EQ(table_count(13, 4), 4u);
  EXPECT_EQ(table_count(1, 8), 1u);
  EXPECT_EQ(table_count(0, 8), 0u);
}

TEST(KeyMatrix, TailGroupPacksMissingAsZeroBits) {
  BinaryMatrix b(1, 5);  // mu=4 -> second group has one real element
  for (std::size_t j = 0; j < 5; ++j) b(0, j) = 1;
  const KeyMatrix k(b, 4);
  EXPECT_EQ(k.tables(), 2u);
  EXPECT_EQ(k.key(0, 0), 0xFu);
  EXPECT_EQ(k.key(0, 1), 0x8u);  // only the MSB position is a real +1
}

/// The one-key-per-table packing the dense stream must reproduce: first
/// element of the group into the most significant bit, inputs past n as
/// 0 bits.
unsigned packed_key(const BinaryMatrix& b, std::size_t i, std::size_t t,
                    unsigned mu) {
  unsigned key = 0;
  for (unsigned j = 0; j < mu; ++j) {
    const std::size_t col = t * mu + j;
    key = (key << 1) | static_cast<unsigned>(col < b.cols() && b(i, col) > 0);
  }
  return key;
}

class KeyMatrixMuSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(KeyMatrixMuSweep, KeysMatchOneKeyPerTablePacking) {
  const unsigned mu = GetParam();
  for (const std::size_t n : {83u, 256u, 320u, 512u}) {
    Rng rng(mu * 1000 + n);
    const BinaryMatrix b = BinaryMatrix::random(7, n, rng);
    const KeyMatrix k(b, mu);
    EXPECT_EQ(k.mu(), mu);
    EXPECT_EQ(k.cols(), n);
    EXPECT_EQ(k.tables(), table_count(n, mu));
    for (std::size_t i = 0; i < 7; ++i) {
      for (std::size_t t = 0; t < k.tables(); ++t) {
        ASSERT_EQ(k.key(i, t), packed_key(b, i, t, mu))
            << "mu=" << mu << " n=" << n << " i=" << i << " t=" << t;
      }
    }
  }
}

TEST_P(KeyMatrixMuSweep, StorageIsTheBitPackedPlanePlusSlack) {
  // n bits per row at every mu: the keys cost no more than the weights'
  // own bits (rounded up to a byte) plus the documented load slack.
  const unsigned mu = GetParam();
  for (const std::size_t n : {83u, 256u, 320u, 512u}) {
    Rng rng(mu + n);
    const KeyMatrix k(BinaryMatrix::random(7, n, rng), mu);
    EXPECT_EQ(k.storage_bytes(), (7 * n + 7) / 8 + kKeySlackBytes)
        << "mu=" << mu << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(MuRange, KeyMatrixMuSweep,
                         ::testing::Range(1u, kMaxLutUnit + 1));

TEST(KeyMatrix, MuEightStreamIsOneKeyPerByte) {
  // The paper's key claim about storage: with mu=8 the key matrix IS the
  // bit-packed weight matrix (m * n/8 bytes), one key per byte.
  Rng rng(2);
  const BinaryMatrix b = BinaryMatrix::random(16, 256, rng);
  const KeyMatrix k(b, 8);
  EXPECT_EQ(k.storage_bytes(), 16u * 256u / 8u + kKeySlackBytes);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t t = 0; t < k.tables(); ++t) {
      EXPECT_EQ(k.stream()[i * k.tables() + t], k.key(i, t));
    }
  }
}

TEST(KeyMatrix, TailFieldReadsTheNextRowsFirstBits) {
  // n = 5, mu = 4: row 0's tail field is its last input then row 1's
  // first three. key() masks them; the raw field the kernels read holds
  // them (they select zero-padded inputs).
  BinaryMatrix b(2, 5);  // all +1
  for (std::size_t j = 0; j < 4; ++j) b(0, j) = -1;
  const KeyMatrix k(b, 4);
  EXPECT_EQ(k.key(0, 0), 0x0u);
  EXPECT_EQ(k.key(0, 1), 0x8u);
  EXPECT_EQ(k.bit_offset(0, 1), 4u);
  EXPECT_EQ(key_window(k.stream(), k.bit_offset(0, 1)) >> 60, 0xFu);
  EXPECT_EQ(k.bit_offset(1, 0), 5u);
  EXPECT_EQ(k.key(1, 0), 0xFu);
  EXPECT_EQ(k.key(1, 1), 0x8u);  // the last row's tail reads the slack
}

TEST(KeyMatrix, RejectsInvalidMu) {
  BinaryMatrix b(1, 8);
  EXPECT_THROW(KeyMatrix(b, 0), std::invalid_argument);
  EXPECT_THROW(KeyMatrix(b, 17), std::invalid_argument);
}

}  // namespace
}  // namespace biq
