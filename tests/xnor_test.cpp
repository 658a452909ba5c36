#include <gtest/gtest.h>

#include <cmath>

#include "gemm/gemm_ref.hpp"
#include "gemm/xnor_gemm.hpp"
#include "quant/greedy.hpp"

namespace biq {
namespace {

TEST(QuantizeActivations, OneBitScaleIsColumnMeanAbs) {
  Matrix x(4, 1);
  x(0, 0) = 1.0f;
  x(1, 0) = -3.0f;
  x(2, 0) = 2.0f;
  x(3, 0) = -2.0f;
  const QuantizedActivations qa = quantize_activations(x, 1);
  EXPECT_FLOAT_EQ(qa.gammas[0][0], 2.0f);
  EXPECT_EQ(qa.planes[0].sign_at(0, 0), 1);
  EXPECT_EQ(qa.planes[0].sign_at(0, 1), -1);
  EXPECT_EQ(qa.planes[0].sign_at(0, 2), 1);
  EXPECT_EQ(qa.planes[0].sign_at(0, 3), -1);
}

TEST(QuantizeActivations, MultiBitReducesColumnError) {
  Rng rng(1);
  Matrix x = Matrix::random_normal(64, 2, rng);
  auto recon_error = [&](unsigned bits) {
    const QuantizedActivations qa = quantize_activations(x, bits);
    double err = 0.0;
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t k = 0; k < 64; ++k) {
        double recon = 0.0;
        for (unsigned q = 0; q < bits; ++q) {
          recon += qa.gammas[q][c] * qa.planes[q].sign_at(c, k);
        }
        const double d = x(k, c) - recon;
        err += d * d;
      }
    }
    return err;
  };
  EXPECT_LT(recon_error(2), recon_error(1));
  EXPECT_LT(recon_error(3), recon_error(2));
}

TEST(QuantizeActivations, RejectsZeroBits) {
  Matrix x(4, 1);
  EXPECT_THROW(quantize_activations(x, 0), std::invalid_argument);
}

/// Reference: compute what the xnor kernel should produce by explicitly
/// multiplying the dequantized weight planes with the dequantized
/// activation planes.
Matrix xnor_expected(const BinaryCodes& wcodes, const QuantizedActivations& qx) {
  Matrix y(wcodes.rows, qx.batch, /*zero_fill=*/true);
  for (unsigned qw = 0; qw < wcodes.bits; ++qw) {
    for (unsigned qa = 0; qa < qx.bits; ++qa) {
      for (std::size_t c = 0; c < qx.batch; ++c) {
        for (std::size_t i = 0; i < wcodes.rows; ++i) {
          long long dot = 0;
          for (std::size_t k = 0; k < wcodes.cols; ++k) {
            dot += wcodes.planes[qw](i, k) * qx.planes[qa].sign_at(c, k);
          }
          y(i, c) += wcodes.alphas[qw][i] * qx.gammas[qa][c] *
                     static_cast<float>(dot);
        }
      }
    }
  }
  return y;
}

struct XnorCase {
  int m, n, b;
  unsigned wbits, abits;
};

class XnorSweep : public ::testing::TestWithParam<XnorCase> {};

TEST_P(XnorSweep, MatchesExplicitReference) {
  const XnorCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.m * 7 + c.n * 3 + c.b));
  Matrix w = Matrix::random_normal(c.m, c.n, rng);
  Matrix x = Matrix::random_normal(c.n, c.b, rng);
  const BinaryCodes codes = quantize_greedy(w, c.wbits);
  const QuantizedActivations qx = quantize_activations(x, c.abits);

  const XnorGemm kernel(codes);
  Matrix actual(c.m, c.b);
  kernel.run_prequantized(qx, actual, ExecContext::thread_default());
  const Matrix expected = xnor_expected(codes, qx);
  EXPECT_LT(max_abs_diff(actual, expected), 1e-3f)
      << "m=" << c.m << " n=" << c.n << " b=" << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, XnorSweep,
    ::testing::Values(XnorCase{4, 64, 1, 1, 1},   // exactly one word
                      XnorCase{8, 40, 2, 1, 1},   // ragged tail
                      XnorCase{6, 130, 3, 1, 1},  // multi-word + tail
                      XnorCase{5, 64, 2, 2, 1},   // multi-bit weights
                      XnorCase{5, 70, 2, 1, 2},   // multi-bit activations
                      XnorCase{7, 100, 4, 3, 2},  // both multi-bit
                      XnorCase{1, 1, 1, 1, 1}));  // degenerate

TEST(XnorGemm, RunQuantizesOnTheFly) {
  Rng rng(11);
  Matrix w = Matrix::random_normal(6, 64, rng);
  Matrix x = Matrix::random_normal(64, 3, rng);
  const BinaryCodes codes = quantize_greedy(w, 1);
  const XnorGemm kernel(codes, 2);
  Matrix via_run(6, 3), via_pre(6, 3);
  kernel.run(x, via_run);
  kernel.run_prequantized(quantize_activations(x, 2), via_pre,
                          ExecContext::thread_default());
  EXPECT_EQ(max_abs_diff(via_run, via_pre), 0.0f);
}

TEST(XnorGemm, ApproximatesFloatGemmWithEnoughBits) {
  Rng rng(13);
  Matrix w = Matrix::random_normal(16, 256, rng);
  Matrix x = Matrix::random_normal(256, 2, rng);
  const BinaryCodes codes = quantize_greedy(w, 4);
  const XnorGemm kernel(codes, 4);
  Matrix approx(16, 2), exact(16, 2);
  kernel.run(x, approx);
  gemm_ref(w, x, exact);
  // Both sides quantized to 4 greedy bits: qualitative agreement, and
  // strictly better than the fully-binarized (1w/1a) configuration.
  const double err4 = rel_fro_error(approx, exact);
  EXPECT_LT(err4, 0.4);
  const XnorGemm kernel1(quantize_greedy(w, 1));
  Matrix approx1(16, 2);
  kernel1.run(x, approx1);
  EXPECT_LT(err4, rel_fro_error(approx1, exact));
}

TEST(XnorGemm, ShapeValidation) {
  Rng rng(17);
  Matrix w = Matrix::random_normal(4, 32, rng);
  const XnorGemm kernel(quantize_greedy(w, 1));
  Matrix x(33, 1), y(4, 1);
  EXPECT_THROW(kernel.run(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace biq
