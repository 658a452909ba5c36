#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/layernorm.hpp"
#include "nn/tensor.hpp"

namespace biq::nn {
namespace {

Matrix filled(std::initializer_list<float> vals, std::size_t rows,
              std::size_t cols) {
  Matrix m(rows, cols);
  auto it = vals.begin();
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) m(r, c) = *it++;
  }
  return m;
}

/// The math plane a default-context plan runs on.
const engine::MathKernels& math() {
  return engine::select_plane(KernelIsa::kAuto).math;
}

/// The math plane's softmax over the rows of each column.
void softmax_each_column(Matrix& x) {
  for (std::size_t c = 0; c < x.cols(); ++c) math().softmax(x.col(c), x.rows());
}

/// The Activation module's output (a compiled one-step plan).
Matrix activated(const Matrix& x, Act act) {
  Matrix y(x.rows(), x.cols());
  Activation(x.rows(), act).forward(x, y);
  return y;
}

Matrix normalized(const LayerNorm& ln, const Matrix& x) {
  Matrix y(x.rows(), x.cols());
  ln.forward(x, y);
  return y;
}

TEST(Activations, ReluClampsNegatives) {
  Matrix x = filled({-1.0f, 0.0f, 2.5f}, 3, 1);
  x = activated(x, Act::kRelu);
  EXPECT_EQ(x(0, 0), 0.0f);
  EXPECT_EQ(x(1, 0), 0.0f);
  EXPECT_EQ(x(2, 0), 2.5f);
}

TEST(Activations, SigmoidKnownValues) {
  Matrix x = filled({0.0f}, 1, 1);
  x = activated(x, Act::kSigmoid);
  EXPECT_FLOAT_EQ(x(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(epilogue::activate(0.0f, EpilogueAct::kSigmoid, math()), 0.5f);
  EXPECT_NEAR(epilogue::activate(100.0f, EpilogueAct::kSigmoid, math()), 1.0f, 1e-6f);
  EXPECT_NEAR(epilogue::activate(-100.0f, EpilogueAct::kSigmoid, math()), 0.0f, 1e-6f);
}

TEST(Activations, TanhMatchesStd) {
  Matrix x = filled({0.7f, -1.3f}, 2, 1);
  x = activated(x, Act::kTanh);
  EXPECT_FLOAT_EQ(x(0, 0), std::tanh(0.7f));
  EXPECT_FLOAT_EQ(x(1, 0), std::tanh(-1.3f));
}

TEST(Activations, GeluProperties) {
  Matrix x = filled({0.0f, 3.0f, -3.0f}, 3, 1);
  x = activated(x, Act::kGelu);
  EXPECT_FLOAT_EQ(x(0, 0), 0.0f);
  EXPECT_NEAR(x(1, 0), 3.0f, 0.02f);   // ~identity for large positive
  EXPECT_NEAR(x(2, 0), 0.0f, 0.01f);   // ~zero for large negative
}

TEST(Activations, GeluNumericalEdges) {
  // Large magnitudes: tanh saturates to +-1 exactly, so gelu must come
  // back finite — identity for large positive, exactly 0 for large
  // negative — with no NaN from the x^3 term's growth.
  Matrix x = filled({1e4f, -1e4f, 30.0f, -30.0f, 0.0f, -0.0f}, 6, 1);
  x = activated(x, Act::kGelu);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(std::isfinite(x(i, 0))) << "row " << i;
  }
  EXPECT_FLOAT_EQ(x(0, 0), 1e4f);
  EXPECT_FLOAT_EQ(x(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(x(2, 0), 30.0f);
  EXPECT_FLOAT_EQ(x(3, 0), 0.0f);
  // Signed zeros: gelu(+-0) = +-0 * 0.5 * (1 + tanh 0), preserving sign.
  EXPECT_EQ(x(4, 0), 0.0f);
  EXPECT_FALSE(std::signbit(x(4, 0)));
  EXPECT_TRUE(std::signbit(x(5, 0)));
}

TEST(Activations, SigmoidNumericalEdges) {
  // exp(-(-1e4)) overflows to +inf; 1/(1+inf) must still give exactly 0,
  // and the large-positive side exactly 1 — saturation, never NaN.
  Matrix x = filled({1e4f, -1e4f, 88.0f, -88.0f, 0.0f, -0.0f}, 6, 1);
  x = activated(x, Act::kSigmoid);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(std::isfinite(x(i, 0))) << "row " << i;
  }
  EXPECT_EQ(x(0, 0), 1.0f);
  EXPECT_EQ(x(1, 0), 0.0f);
  EXPECT_NEAR(x(2, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(x(3, 0), 0.0f, 1e-6f);
  // sigmoid(+-0) is exactly one half either way.
  EXPECT_FLOAT_EQ(x(4, 0), 0.5f);
  EXPECT_FLOAT_EQ(x(5, 0), 0.5f);
}

TEST(Softmax, ColumnsSumToOne) {
  Rng rng(1);
  Matrix x = Matrix::random_normal(9, 4, rng);
  softmax_each_column(x);
  for (std::size_t c = 0; c < 4; ++c) {
    float sum = 0.0f;
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_GT(x(i, c), 0.0f);
      sum += x(i, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, StableForLargeLogits) {
  Matrix x = filled({1000.0f, 999.0f}, 2, 1);
  softmax_each_column(x);
  EXPECT_TRUE(std::isfinite(x(0, 0)));
  EXPECT_NEAR(x(0, 0) + x(1, 0), 1.0f, 1e-5f);
  EXPECT_GT(x(0, 0), x(1, 0));
}

TEST(Softmax, UniformInputGivesUniformOutput) {
  Matrix x(5, 1);
  x.fill(0.3f);
  softmax_each_column(x);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x(i, 0), 0.2f, 1e-6f);
}

TEST(Softmax, AllEqualColumnsAreExactlyUniform) {
  // Peak-subtraction makes every shifted logit exactly 0, so each
  // column is exp(0)/n = 1/n EXACTLY — including at extreme magnitudes
  // where naive exp would overflow or flush to zero.
  for (const float v : {0.0f, -0.0f, 1e6f, -1e6f, 3.25f}) {
    Matrix x(4, 3);
    x.fill(v);
    softmax_each_column(x);
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(x(i, c), 0.25f) << "v=" << v;
      }
    }
  }
}

TEST(Softmax, ExtremeLogitsProduceNoNaN) {
  Matrix x = filled({1e8f, -1e8f, 0.0f, -0.0f}, 4, 1);
  softmax_each_column(x);
  float sum = 0.0f;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(x(i, 0))) << "row " << i;
    EXPECT_GE(x(i, 0), 0.0f);
    sum += x(i, 0);
  }
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_NEAR(x(0, 0), 1.0f, 1e-6f);  // the dominant logit takes all
}

TEST(Softmax, ZeroRowColumnsAreANoOp) {
  // Columns with no rows hold no distribution; a 0-row matrix has no
  // storage, so nothing may be read through its column pointers.
  Matrix x(0, 3);
  softmax_each_column(x);
  EXPECT_EQ(x.rows(), 0u);
  EXPECT_EQ(x.cols(), 3u);
}

TEST(LayerNorm, NormalizesToZeroMeanUnitVar) {
  Rng rng(2);
  Matrix x = Matrix::random_normal(64, 3, rng, 5.0f, 3.0f);
  const LayerNorm ln(64);
  x = normalized(ln, x);
  for (std::size_t c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t i = 0; i < 64; ++i) mean += x(i, c);
    mean /= 64.0;
    for (std::size_t i = 0; i < 64; ++i) var += (x(i, c) - mean) * (x(i, c) - mean);
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNorm, GammaBetaApplied) {
  Matrix x = filled({1.0f, 3.0f}, 2, 1);
  LayerNorm ln(2);
  ln.gamma() = {2.0f, 2.0f};
  ln.beta() = {10.0f, 10.0f};
  x = normalized(ln, x);
  // normalized values are -1, +1 -> scaled to 8, 12.
  EXPECT_NEAR(x(0, 0), 8.0f, 1e-2f);
  EXPECT_NEAR(x(1, 0), 12.0f, 1e-2f);
}

TEST(LayerNorm, RejectsWrongDim) {
  const Matrix x(3, 1);
  const LayerNorm ln(4);
  EXPECT_THROW((void)normalized(ln, x), std::invalid_argument);
}

TEST(TensorHelpers, AddIntoAndCopyInto) {
  Matrix a = filled({1.0f, 2.0f}, 2, 1);
  Matrix b = filled({10.0f, 20.0f}, 2, 1);
  Matrix dst(2, 1);
  add_into(a, b, dst);
  EXPECT_EQ(dst(0, 0), 11.0f);
  EXPECT_EQ(dst(1, 0), 22.0f);
  copy_into(a, dst);
  EXPECT_EQ(dst(1, 0), 2.0f);
  // In-place residual (dst aliases a) must also work.
  add_into(a, b, a);
  EXPECT_EQ(a(0, 0), 11.0f);
}

TEST(TensorHelpers, Transpose) {
  Matrix a = filled({1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f}, 2, 3);
  Matrix t = transpose(a);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(t(j, i), a(i, j));
  }
}

TEST(TensorHelpers, XavierBoundsAndDeterminism) {
  Rng r1(3), r2(3);
  Matrix a = xavier_uniform(30, 50, r1);
  Matrix b = xavier_uniform(30, 50, r2);
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
  const float limit = std::sqrt(6.0f / 80.0f);
  for (std::size_t j = 0; j < 50; ++j) {
    for (std::size_t i = 0; i < 30; ++i) {
      EXPECT_LE(std::fabs(a(i, j)), limit);
    }
  }
}

}  // namespace
}  // namespace biq::nn
