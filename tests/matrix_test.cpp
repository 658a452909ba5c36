#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "matrix/binary_matrix.hpp"
#include "matrix/matrix.hpp"
#include "util/aligned_buffer.hpp"

namespace biq {
namespace {

TEST(Matrix, ColumnMajorLayout) {
  Matrix m(3, 2);
  m(0, 0) = 1;
  m(2, 0) = 3;
  m(0, 1) = 4;
  EXPECT_EQ(m.data()[0], 1.0f);
  EXPECT_EQ(m.data()[2], 3.0f);
  EXPECT_EQ(m.data()[3], 4.0f);  // second column starts at ld == rows
  EXPECT_EQ(m.col(1), m.data() + 3);
}

TEST(Matrix, ZeroFillDefault) {
  Matrix m(4, 4);
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(m(i, j), 0.0f);
  }
}

TEST(Matrix, RandomFactoriesAreDeterministic) {
  Rng r1(42), r2(42);
  Matrix a = Matrix::random_uniform(5, 7, r1);
  Matrix b = Matrix::random_uniform(5, 7, r2);
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
}

TEST(Matrix, RandomUniformRespectsRange) {
  Rng rng(3);
  Matrix m = Matrix::random_uniform(20, 20, rng, 0.5f, 1.5f);
  for (std::size_t j = 0; j < 20; ++j) {
    for (std::size_t i = 0; i < 20; ++i) {
      EXPECT_GE(m(i, j), 0.5f);
      EXPECT_LT(m(i, j), 1.5f);
    }
  }
}

TEST(Matrix, MaxAbsDiffAndAllclose) {
  Matrix a(2, 2), b(2, 2);
  a(1, 1) = 1.0f;
  b(1, 1) = 1.001f;
  EXPECT_NEAR(max_abs_diff(a, b), 0.001f, 1e-6f);
  EXPECT_TRUE(allclose(a, b, /*rtol=*/1e-2f, /*atol=*/1e-2f));
  EXPECT_FALSE(allclose(a, b, /*rtol=*/1e-6f, /*atol=*/1e-6f));
}

TEST(Matrix, AllcloseRejectsShapeMismatch) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_FALSE(allclose(a, b));
  EXPECT_TRUE(std::isinf(max_abs_diff(a, b)));
}

TEST(Matrix, FroNormAndRelError) {
  Matrix a(1, 2);
  a(0, 0) = 3.0f;
  a(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(fro_norm(a), 5.0);
  Matrix b(1, 2);  // zeros
  EXPECT_NEAR(rel_fro_error(b, a), 1.0, 1e-12);
  EXPECT_NEAR(rel_fro_error(a, a), 0.0, 1e-12);
}

TEST(Matrix, ShapeStr) {
  Matrix a(12, 34);
  EXPECT_EQ(shape_str(a), "12x34");
}

TEST(BinaryMatrix, DefaultIsPlusOne) {
  BinaryMatrix b(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(b(i, j), 1);
  }
}

TEST(BinaryMatrix, RandomProducesOnlySigns) {
  Rng rng(5);
  BinaryMatrix b = BinaryMatrix::random(17, 23, rng);
  int minus = 0;
  for (std::size_t i = 0; i < 17; ++i) {
    for (std::size_t j = 0; j < 23; ++j) {
      EXPECT_TRUE(b(i, j) == 1 || b(i, j) == -1);
      minus += b(i, j) < 0 ? 1 : 0;
    }
  }
  EXPECT_GT(minus, 17 * 23 / 4);  // roughly balanced
  EXPECT_LT(minus, 17 * 23 * 3 / 4);
}

TEST(BinaryMatrix, SignOfTreatsZeroAsPlus) {
  Matrix w(2, 2);
  w(0, 0) = -0.5f;
  w(0, 1) = 0.0f;
  w(1, 0) = 2.0f;
  w(1, 1) = -3.0f;
  BinaryMatrix b = BinaryMatrix::sign_of(w);
  EXPECT_EQ(b(0, 0), -1);
  EXPECT_EQ(b(0, 1), 1);
  EXPECT_EQ(b(1, 0), 1);
  EXPECT_EQ(b(1, 1), -1);
}

TEST(BinaryMatrix, ToFloatMatchesElements) {
  Rng rng(9);
  BinaryMatrix b = BinaryMatrix::random(4, 6, rng);
  Matrix f = b.to_float_rowmajor_as_colmajor();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(f(i, j), static_cast<float>(b(i, j)));
    }
  }
}

TEST(BinaryMatrix, RowPointerIsRowMajor) {
  BinaryMatrix b(2, 3);
  b(1, 2) = -1;
  EXPECT_EQ(b.row(1)[2], -1);
  EXPECT_EQ(b.row(0)[2], 1);
}

// Sizes whose byte counts wrap size_t must throw before anything is
// allocated: a wrapped count would allocate a short block that later
// writes run past (and an honest huge request would abort under ASan).
constexpr std::size_t kMaxSize = std::numeric_limits<std::size_t>::max();

TEST(Matrix, OverflowingShapeThrowsLengthError) {
  EXPECT_THROW(Matrix(kMaxSize / 2, 4), std::length_error);
  EXPECT_THROW(Matrix(4, kMaxSize / 2, /*zero_fill=*/false), std::length_error);
  // rows * cols fits, rows * cols * sizeof(float) does not.
  EXPECT_THROW(Matrix(kMaxSize / 8, 2), std::length_error);
}

TEST(BinaryMatrix, OverflowingShapeThrowsLengthError) {
  EXPECT_THROW(BinaryMatrix(kMaxSize / 2, 4), std::length_error);
}

TEST(AlignedBuffer, OverflowingCountThrowsLengthError) {
  // count * sizeof(T) wraps.
  EXPECT_THROW(AlignedBuffer<float>(kMaxSize / 2), std::length_error);
  EXPECT_THROW(AlignedBuffer<std::uint16_t>(kMaxSize / 2 + 1),
               std::length_error);
  // The byte count fits; its round-up to the 64-byte alignment wraps.
  EXPECT_THROW(AlignedBuffer<unsigned char>(kMaxSize - 8), std::length_error);
  EXPECT_THROW(AlignedBuffer<float>(kMaxSize / 4), std::length_error);
}

TEST(AlignedBuffer, CheckedSizeHelpers) {
  EXPECT_EQ(checked_size_mul(0, kMaxSize, "t"), 0u);
  EXPECT_EQ(checked_size_mul(kMaxSize, 1, "t"), kMaxSize);
  EXPECT_THROW((void)checked_size_mul(kMaxSize / 2 + 1, 2, "t"),
               std::length_error);
  EXPECT_EQ(checked_round_up(65, 64, "t"), 128u);
  EXPECT_EQ(checked_round_up(kMaxSize - 63, 64, "t"), kMaxSize - 63);
  EXPECT_THROW((void)checked_round_up(kMaxSize - 62, 64, "t"),
               std::length_error);
}

}  // namespace
}  // namespace biq
