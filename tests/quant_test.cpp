#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "quant/alternating.hpp"
#include "quant/error.hpp"
#include "quant/greedy.hpp"
#include "quant/uniform.hpp"

namespace biq {
namespace {

Matrix random_weights(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::random_normal(m, n, rng, 0.0f, 0.7f);
}

TEST(Greedy, OneBitScaleIsMeanAbs) {
  Matrix w(1, 4);
  w(0, 0) = 1.0f;
  w(0, 1) = -2.0f;
  w(0, 2) = 3.0f;
  w(0, 3) = -4.0f;
  const BinaryCodes codes = quantize_greedy(w, 1);
  EXPECT_FLOAT_EQ(codes.alphas[0][0], 2.5f);
  EXPECT_EQ(codes.planes[0](0, 0), 1);
  EXPECT_EQ(codes.planes[0](0, 1), -1);
  EXPECT_EQ(codes.planes[0](0, 2), 1);
  EXPECT_EQ(codes.planes[0](0, 3), -1);
}

TEST(Greedy, RowsQuantizedIndependently) {
  Matrix w(2, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    w(0, j) = 1.0f;     // row 0: all +1
    w(1, j) = -10.0f;   // row 1: all -10
  }
  const BinaryCodes codes = quantize_greedy(w, 1);
  EXPECT_FLOAT_EQ(codes.alphas[0][0], 1.0f);
  EXPECT_FLOAT_EQ(codes.alphas[0][1], 10.0f);
}

TEST(Greedy, ExactForBinaryCodedWeights) {
  // w = 0.5 * b is exactly representable with 1 bit.
  Rng rng(7);
  BinaryMatrix b = BinaryMatrix::random(4, 16, rng);
  Matrix w(4, 16);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      w(i, j) = 0.5f * static_cast<float>(b(i, j));
    }
  }
  const BinaryCodes codes = quantize_greedy(w, 1);
  EXPECT_NEAR(quant_mse(w, codes.dequantize()), 0.0, 1e-12);
}

TEST(Greedy, RejectsInvalidArguments) {
  Matrix w(2, 2);
  EXPECT_THROW(quantize_greedy(w, 0), std::invalid_argument);
}

class QuantBitsSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(QuantBitsSweep, GreedyErrorNonIncreasingInBits) {
  const unsigned bits = GetParam();
  const Matrix w = random_weights(16, 64, 11);
  const double err_lo = quant_mse(w, quantize_greedy(w, bits).dequantize());
  const double err_hi = quant_mse(w, quantize_greedy(w, bits + 1).dequantize());
  EXPECT_LE(err_hi, err_lo + 1e-12);
}

TEST_P(QuantBitsSweep, AlternatingNoWorseThanGreedy) {
  const unsigned bits = GetParam();
  const Matrix w = random_weights(12, 48, 13);
  const double greedy = quant_mse(w, quantize_greedy(w, bits).dequantize());
  const double alt = quant_mse(w, quantize_alternating(w, bits).dequantize());
  EXPECT_LE(alt, greedy + 1e-9);
}

TEST_P(QuantBitsSweep, DequantizeShapeAndScalesFinite) {
  const unsigned bits = GetParam();
  const Matrix w = random_weights(9, 33, 17);
  const BinaryCodes codes = quantize_greedy(w, bits);
  EXPECT_EQ(codes.bits, bits);
  EXPECT_EQ(codes.planes.size(), bits);
  EXPECT_EQ(codes.alphas.size(), bits);
  for (unsigned q = 0; q < bits; ++q) {
    for (float a : codes.alphas[q]) {
      EXPECT_TRUE(std::isfinite(a));
      EXPECT_GE(a, 0.0f);  // greedy scales are mean magnitudes
    }
  }
  const Matrix recon = codes.dequantize();
  EXPECT_EQ(recon.rows(), 9u);
  EXPECT_EQ(recon.cols(), 33u);
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantBitsSweep, ::testing::Values(1u, 2u, 3u, 4u));

TEST(Alternating, ExactForTwoLevelWeights) {
  // Weights taking values {-a-b, -a+b, a-b, a+b} are exactly 2-bit
  // representable; alternating must find (near-)zero error.
  Rng rng(19);
  const float a = 0.8f, bval = 0.3f;
  Matrix w(6, 32);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 32; ++j) {
      const float s1 = rng.sign() > 0 ? 1.0f : -1.0f;
      const float s2 = rng.sign() > 0 ? 1.0f : -1.0f;
      w(i, j) = a * s1 + bval * s2;
    }
  }
  const BinaryCodes codes = quantize_alternating(w, 2);
  EXPECT_NEAR(quant_mse(w, codes.dequantize()), 0.0, 1e-8);
}

TEST(Alternating, RespectsIterationBudget) {
  const Matrix w = random_weights(4, 16, 23);
  AlternatingOptions opt;
  opt.iterations = 1;
  const BinaryCodes one = quantize_alternating(w, 3, opt);
  opt.iterations = 20;
  const BinaryCodes many = quantize_alternating(w, 3, opt);
  EXPECT_LE(quant_mse(w, many.dequantize()), quant_mse(w, one.dequantize()) + 1e-9);
}

TEST(Alternating, RejectsOutOfRangeBits) {
  Matrix w(2, 2);
  w(0, 0) = 1.0f;
  EXPECT_THROW(quantize_alternating(w, 0), std::invalid_argument);
  EXPECT_THROW(quantize_alternating(w, 9), std::invalid_argument);
}

TEST(Uniform, RoundTripErrorBoundedByHalfScale) {
  const Matrix w = random_weights(10, 20, 29);
  const UniformQuantized q = quantize_uniform(w, 8);
  const Matrix recon = q.dequantize();
  const float bound = q.scale * 0.5f + 1e-6f;
  EXPECT_LE(max_abs_diff(w, recon), bound);
}

TEST(Uniform, ErrorShrinksWithBits) {
  const Matrix w = random_weights(10, 20, 31);
  const double e4 = quant_mse(w, quantize_uniform(w, 4).dequantize());
  const double e8 = quant_mse(w, quantize_uniform(w, 8).dequantize());
  EXPECT_LT(e8, e4);
}

TEST(Uniform, ValuesStayInRange) {
  const Matrix w = random_weights(8, 8, 37);
  const UniformQuantized q = quantize_uniform(w, 4);
  const int qmax = (1 << 3) - 1;
  for (std::size_t i = 0; i < q.values.size(); ++i) {
    EXPECT_GE(q.values[i], -qmax);
    EXPECT_LE(q.values[i], qmax);
  }
}

TEST(Uniform, PackedStorageBytes) {
  const Matrix w = random_weights(512, 512, 41);
  EXPECT_EQ(quantize_uniform(w, 8).packed_storage_bytes(), 512u * 512u);
  EXPECT_EQ(quantize_uniform(w, 4).packed_storage_bytes(), 512u * 512u / 2u);
}

TEST(BinaryCodesStorage, PackedBytesFormula) {
  const Matrix w = random_weights(512, 512, 43);
  const BinaryCodes codes = quantize_greedy(w, 3);
  // 3 planes * (512 rows * 64 bytes + 512 scales * 4 bytes)
  EXPECT_EQ(codes.packed_storage_bytes(), 3u * (512u * 64u + 512u * 4u));
}

TEST(ErrorMetrics, SqnrInfiniteForExactAndPositiveForNoisy) {
  const Matrix w = random_weights(5, 5, 47);
  EXPECT_TRUE(std::isinf(sqnr_db(w, w)));
  Matrix noisy = w;
  noisy(0, 0) += 0.1f;
  const double db = sqnr_db(w, noisy);
  EXPECT_TRUE(std::isfinite(db));
  EXPECT_GT(db, 0.0);
}

TEST(ErrorMetrics, RelativeReconstructionErrorFallsWithBits) {
  // The Table I quality proxy: the relative Frobenius error of the
  // dequantized weights is positive and strictly falls from 1 to 4 bits.
  const Matrix w = random_weights(20, 40, 9);
  double prev = 2.0;
  for (unsigned bits = 1; bits <= 4; ++bits) {
    const double err = rel_fro_error(quantize_greedy(w, bits).dequantize(), w);
    EXPECT_GT(err, 0.0) << "bits=" << bits;
    EXPECT_LT(err, prev) << "bits=" << bits;
    prev = err;
  }
}

TEST(ErrorMetrics, MseOfShiftedMatrix) {
  Matrix a(2, 2), b(2, 2);
  b(0, 0) = 2.0f;  // single element differs by 2
  EXPECT_DOUBLE_EQ(quant_mse(a, b), 1.0);
}

}  // namespace
}  // namespace biq
