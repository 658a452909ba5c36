#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/key_matrix.hpp"
#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/tensor.hpp"

namespace biq::nn {
namespace {

Matrix identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

std::unique_ptr<LinearLayer> identity_layer(std::size_t n) {
  return make_linear(identity(n), std::vector<float>(), 0);
}

/// Hand-rolled single-head attention with identity projections:
/// y = V . softmax(K^T Q / sqrt(d)) with Q = K = V = x.
Matrix reference_self_attention(const Matrix& x) {
  const std::size_t d = x.rows(), t = x.cols();
  const float inv = 1.0f / std::sqrt(static_cast<float>(d));
  Matrix scores(t, t);
  for (std::size_t qt = 0; qt < t; ++qt) {
    for (std::size_t kt = 0; kt < t; ++kt) {
      float dot = 0.0f;
      for (std::size_t i = 0; i < d; ++i) dot += x(i, qt) * x(i, kt);
      scores(kt, qt) = dot * inv;
    }
  }
  const engine::MathKernels& math = engine::select_plane(KernelIsa::kAuto).math;
  for (std::size_t qt = 0; qt < t; ++qt) math.softmax(scores.col(qt), t);
  Matrix y(d, t, /*zero_fill=*/true);
  for (std::size_t qt = 0; qt < t; ++qt) {
    for (std::size_t kt = 0; kt < t; ++kt) {
      for (std::size_t i = 0; i < d; ++i) y(i, qt) += x(i, kt) * scores(kt, qt);
    }
  }
  return y;
}

TEST(Attention, SingleHeadIdentityProjectionsMatchReference) {
  const std::size_t d = 16, t = 7;
  Rng rng(1);
  Matrix x = Matrix::random_normal(d, t, rng);
  MultiHeadAttention mha(identity_layer(d), identity_layer(d),
                         identity_layer(d), identity_layer(d), /*heads=*/1);
  Matrix y(d, t);
  mha.forward(x, y);
  const Matrix expected = reference_self_attention(x);
  EXPECT_TRUE(allclose(y, expected, 1e-3f, 1e-3f))
      << "maxdiff=" << max_abs_diff(y, expected);
}

TEST(Attention, UniformTokensAttendUniformly) {
  // If all tokens are identical, attention output equals the value
  // vector regardless of weights distribution.
  const std::size_t d = 8, t = 5;
  Matrix x(d, t);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < d; ++i) x(i, c) = static_cast<float>(i) * 0.1f;
  }
  MultiHeadAttention mha(identity_layer(d), identity_layer(d),
                         identity_layer(d), identity_layer(d), 2);
  Matrix y(d, t);
  mha.forward(x, y);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < d; ++i) {
      EXPECT_NEAR(y(i, c), x(i, 0), 1e-4f);
    }
  }
}

TEST(Attention, MultiHeadSplitsRows) {
  // With 2 heads and block-diagonal structure in the input, heads must
  // not mix rows: zeroing the second half of features leaves the first
  // half's output unchanged vs a 1-head run on the first half only.
  const std::size_t d = 12, t = 4;
  Rng rng(2);
  Matrix x = Matrix::random_normal(d, t, rng);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = d / 2; i < d; ++i) x(i, c) = 0.0f;
  }
  MultiHeadAttention mha(identity_layer(d), identity_layer(d),
                         identity_layer(d), identity_layer(d), 2);
  Matrix y(d, t);
  mha.forward(x, y);

  Matrix xh(d / 2, t);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < d / 2; ++i) xh(i, c) = x(i, c);
  }
  MultiHeadAttention half(identity_layer(d / 2), identity_layer(d / 2),
                          identity_layer(d / 2), identity_layer(d / 2), 1);
  Matrix yh(d / 2, t);
  half.forward(xh, yh);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < d / 2; ++i) {
      EXPECT_NEAR(y(i, c), yh(i, c), 1e-4f);
    }
  }
}

TEST(Attention, QuantizedProjectionsStayClose) {
  const std::size_t d = 32, t = 6;
  Rng wrng(3);
  Matrix wq = xavier_uniform(d, d, wrng);
  Matrix wk = xavier_uniform(d, d, wrng);
  Matrix wv = xavier_uniform(d, d, wrng);
  Matrix wo = xavier_uniform(d, d, wrng);

  auto fp_layer = [&](const Matrix& w) {
    return make_linear(w, std::vector<float>(), 0);
  };
  auto q_layer = [&](const Matrix& w) {
    return make_linear(w, std::vector<float>(), 4);
  };

  MultiHeadAttention fp(fp_layer(wq), fp_layer(wk), fp_layer(wv), fp_layer(wo), 4);
  MultiHeadAttention quant(q_layer(wq), q_layer(wk), q_layer(wv), q_layer(wo), 4);

  Rng xrng(4);
  Matrix x = Matrix::random_normal(d, t, xrng);
  Matrix y_fp(d, t), y_q(d, t);
  fp.forward(x, y_fp);
  quant.forward(x, y_q);
  EXPECT_LT(rel_fro_error(y_q, y_fp), 0.25);
  // 4-bit keys: d*d/2 bytes per projection and each plane's load slack,
  // plus 4 fp32 scales per row.
  const std::size_t expected_per_proj =
      4 * (d * d / 8 + kKeySlackBytes) + 4 * d * 4;
  EXPECT_EQ(quant.weight_bytes(), 4 * expected_per_proj);
  EXPECT_LT(quant.weight_bytes() * 3, fp.weight_bytes());
}

TEST(Attention, RejectsBadConfigs) {
  EXPECT_THROW(MultiHeadAttention(identity_layer(8), identity_layer(8),
                                  identity_layer(8), identity_layer(8), 3),
               std::invalid_argument);  // 3 does not divide 8
  Rng rng(5);
  auto rect = make_linear(Matrix::random_normal(8, 4, rng),
                          std::vector<float>(), 0);
  EXPECT_THROW(MultiHeadAttention(std::move(rect), identity_layer(8),
                                  identity_layer(8), identity_layer(8), 2),
               std::invalid_argument);
}

TEST(Attention, ShapeValidationOnForward) {
  MultiHeadAttention mha(identity_layer(8), identity_layer(8),
                         identity_layer(8), identity_layer(8), 2);
  Matrix x(8, 3), y(8, 4);
  EXPECT_THROW(mha.forward(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace biq::nn
