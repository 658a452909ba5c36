#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "nn/tensor.hpp"
#include "nn/transformer.hpp"

namespace biq::nn {
namespace {

TransformerConfig tiny() {
  TransformerConfig cfg;
  cfg.hidden = 32;
  cfg.ffn = 64;
  cfg.heads = 4;
  cfg.layers = 2;
  return cfg;
}

TEST(Transformer, ConfigPresets) {
  const TransformerConfig base = TransformerConfig::base();
  EXPECT_EQ(base.hidden, 512u);
  EXPECT_EQ(base.ffn, 2048u);
  EXPECT_EQ(base.layers, 6u);
  const TransformerConfig big = TransformerConfig::big();
  EXPECT_EQ(big.hidden, 1024u);
}

TEST(Transformer, ForwardPreservesShapeAndIsFinite) {
  const TransformerEncoder enc = make_encoder(tiny(), 42, {});
  Rng rng(1);
  const Matrix x = Matrix::random_normal(32, 6, rng);
  Matrix y(32, 6);
  enc.forward(x, y);
  for (std::size_t c = 0; c < 6; ++c) {
    for (std::size_t i = 0; i < 32; ++i) {
      EXPECT_TRUE(std::isfinite(y(i, c)));
    }
  }
}

TEST(Transformer, SameSeedSameOutput) {
  const TransformerEncoder a = make_encoder(tiny(), 7, {});
  const TransformerEncoder b = make_encoder(tiny(), 7, {});
  Rng rng(2);
  const Matrix x = Matrix::random_normal(32, 4, rng);
  Matrix ya(32, 4), yb(32, 4);
  a.forward(x, ya);
  b.forward(x, yb);
  EXPECT_EQ(max_abs_diff(ya, yb), 0.0f);
}

TEST(Transformer, DifferentSeedDifferentModel) {
  const TransformerEncoder a = make_encoder(tiny(), 7, {});
  const TransformerEncoder b = make_encoder(tiny(), 8, {});
  Rng rng(3);
  const Matrix x = Matrix::random_normal(32, 4, rng);
  Matrix ya(32, 4), yb(32, 4);
  a.forward(x, ya);
  b.forward(x, yb);
  EXPECT_GT(max_abs_diff(ya, yb), 1e-3f);
}

TEST(Transformer, QuantizedTracksFloatAndImprovesWithBits) {
  const TransformerEncoder fp = make_encoder(tiny(), 11, {});
  Rng rng(4);
  const Matrix x = Matrix::random_normal(32, 5, rng);
  Matrix y_fp(32, 5);
  fp.forward(x, y_fp);

  double prev_err = 1e18;
  for (unsigned bits : {1u, 2u, 3u}) {
    QuantSpec spec;
    spec.weight_bits = bits;
    const TransformerEncoder q = make_encoder(tiny(), 11, spec);
    Matrix y_q(32, 5);
    q.forward(x, y_q);
    const double err = rel_fro_error(y_q, y_fp);
    EXPECT_LT(err, prev_err * 1.05) << "bits=" << bits;  // allow fp noise
    prev_err = err;
  }
  // 3-bit should track the float model reasonably (LayerNorm keeps
  // activations bounded; the paper's claim is <=0.5 BLEU at 3 bits).
  EXPECT_LT(prev_err, 0.6);
}

TEST(Transformer, QuantizedWeightsCompressStorage) {
  QuantSpec spec;
  spec.weight_bits = 2;
  const TransformerEncoder fp = make_encoder(tiny(), 13, {});
  const TransformerEncoder q = make_encoder(tiny(), 13, spec);
  EXPECT_EQ(q.layer_count(), 2u);
  // 2-bit packing compresses ~16x; per-row scales cost a bit of that on
  // these deliberately tiny layers (hidden=32), leaving >= 8x.
  EXPECT_LT(q.weight_bytes() * 8, fp.weight_bytes());
}

TEST(FeedForward, RejectsNonTransposedShapes) {
  Rng rng(5);
  auto up = make_linear(Matrix::random_normal(16, 8, rng),
                        std::vector<float>(), 0);
  auto down_bad = make_linear(Matrix::random_normal(8, 12, rng),
                              std::vector<float>(), 0);
  EXPECT_THROW(FeedForward(std::move(up), std::move(down_bad)),
               std::invalid_argument);
}

TEST(FeedForward, AppliesActivationBetweenLayers) {
  // up = I, down = I, relu in between: negative inputs clamp to 0.
  const std::size_t d = 4;
  Matrix ident(d, d);
  for (std::size_t i = 0; i < d; ++i) ident(i, i) = 1.0f;
  FeedForward ffn(make_linear(ident, std::vector<float>(), 0),
                  make_linear(ident, std::vector<float>(), 0), Act::kRelu);
  Matrix x(d, 1);
  x(0, 0) = -5.0f;
  x(1, 0) = 2.0f;
  Matrix y(d, 1);
  ffn.forward(x, y);
  EXPECT_NEAR(y(0, 0), 0.0f, 1e-5f);
  EXPECT_NEAR(y(1, 0), 2.0f, 1e-5f);
}

TEST(Transformer, ModuleInterfaceShapes) {
  const TransformerEncoder enc = make_encoder(tiny(), 3, {});
  EXPECT_EQ(enc.in_rows(), 32u);
  EXPECT_EQ(enc.out_shape({32, 6}).rows, 32u);
  EXPECT_THROW((void)enc.out_shape({16, 6}), std::invalid_argument);

  const EncoderLayer& layer = enc.layers().front();
  EXPECT_EQ(layer.in_rows(), 32u);
  EXPECT_EQ(layer.out_shape({32, 6}).rows, 32u);

  const FeedForward& ffn = layer.ffn();
  EXPECT_EQ(ffn.in_rows(), 32u);
  EXPECT_EQ(ffn.out_shape({32, 6}).rows, 32u);
  EXPECT_THROW((void)ffn.out_shape({64, 6}), std::invalid_argument);
}

std::unique_ptr<LinearLayer> square(std::size_t n, Rng& rng) {
  return make_linear(xavier_uniform(n, n, rng), std::vector<float>(), 0);
}

MultiHeadAttention attention(std::size_t n, Rng& rng) {
  return MultiHeadAttention(square(n, rng), square(n, rng), square(n, rng),
                            square(n, rng), 4);
}

FeedForward ffn(std::size_t n, Rng& rng) {
  return FeedForward(
      make_linear(xavier_uniform(2 * n, n, rng), std::vector<float>(), 0),
      make_linear(xavier_uniform(n, 2 * n, rng), std::vector<float>(), 0));
}

TEST(EncoderLayer, RejectsSubBlocksOfAnotherWidth) {
  Rng rng(6);
  EXPECT_THROW(EncoderLayer(attention(32, rng), ffn(32, rng), 16),
               std::invalid_argument);
  EXPECT_THROW(EncoderLayer(attention(32, rng), ffn(16, rng), 32),
               std::invalid_argument);
  EXPECT_THROW(EncoderLayer(attention(16, rng), ffn(32, rng), 32),
               std::invalid_argument);
  EXPECT_NO_THROW(EncoderLayer(attention(32, rng), ffn(32, rng), 32));
}

TEST(TransformerEncoder, RejectsLayersOfAnotherWidth) {
  Rng rng(7);
  std::vector<EncoderLayer> layers;
  layers.emplace_back(attention(32, rng), ffn(32, rng), 32);
  TransformerConfig cfg = tiny();
  cfg.hidden = 64;
  EXPECT_THROW(TransformerEncoder(cfg, std::move(layers)),
               std::invalid_argument);
}

}  // namespace
}  // namespace biq::nn
