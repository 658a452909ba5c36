// Cross-module integration: quantize -> pack -> BiQGEMM inside real
// model blocks, against the float pipeline, with all kernels mixed.
#include <gtest/gtest.h>

#include <cmath>

#include "core/biqgemm.hpp"
#include "gemm/gemm_blocked.hpp"
#include "gemm/gemm_ref.hpp"
#include "gemm/gemm_unpack.hpp"
#include "gemm/xnor_gemm.hpp"
#include "nn/lstm.hpp"
#include "nn/tensor.hpp"
#include "nn/transformer.hpp"
#include "quant/alternating.hpp"
#include "quant/error.hpp"
#include "quant/greedy.hpp"
#include "util/footprint.hpp"

namespace biq {
namespace {

// Every quantized-weight execution path must agree on the same product:
// reference, unpack-GEMM, BiQGEMM (tiled + basic) — bit-for-bit within
// fp tolerance, because they all consume the identical BinaryCodes.
TEST(Integration, AllQuantizedPathsAgree) {
  Rng rng(1);
  Matrix w = Matrix::random_normal(96, 144, rng);
  Matrix x = Matrix::random_normal(144, 12, rng);
  const BinaryCodes codes = quantize_greedy(w, 2);

  Matrix ref(96, 12), unpacked(96, 12), lut(96, 12), basic(96, 12);
  gemm_codes_ref(codes, x, ref);
  gemm_unpack_codes(pack_code_planes(codes), codes.alphas, x, unpacked);
  BiqGemm(codes).run(x, lut);
  biqgemm_basic(codes, x, basic, 8);

  EXPECT_TRUE(allclose(unpacked, ref, 1e-3f, 1e-3f));
  EXPECT_TRUE(allclose(lut, ref, 1e-3f, 1e-3f));
  EXPECT_TRUE(allclose(basic, ref, 1e-3f, 1e-3f));
}

TEST(Integration, BiqGemmBeatsQuantizedAccuracyOfXnor) {
  // BiQGEMM keeps activations fp32, xnor quantizes them too: with the
  // same 2-bit weights, BiQGEMM's output must be strictly closer to the
  // float product.
  Rng rng(2);
  Matrix w = Matrix::random_normal(64, 256, rng);
  Matrix x = Matrix::random_normal(256, 8, rng);
  const BinaryCodes codes = quantize_greedy(w, 2);

  Matrix exact(64, 8), via_biq(64, 8), via_xnor(64, 8);
  gemm_ref(w, x, exact);
  BiqGemm(codes).run(x, via_biq);
  XnorGemm(codes, 1).run(x, via_xnor);

  EXPECT_LT(rel_fro_error(via_biq, exact), rel_fro_error(via_xnor, exact));
}

TEST(Integration, TransformerBaseAttentionShapes) {
  // One attention projection of the base Transformer (512x512), batch 18
  // — the exact Table II configuration — through the full pipeline.
  Rng rng(3);
  Matrix w = Matrix::random_normal(512, 512, rng, 0.0f, 0.05f);
  Matrix x = Matrix::random_normal(512, 18, rng);
  const BinaryCodes codes = quantize_greedy(w, 3);

  const BiqGemm kernel(codes, {});
  Matrix y(512, 18), ref(512, 18);
  kernel.run(x, y);
  gemm_codes_ref(codes, x, ref);
  EXPECT_TRUE(allclose(y, ref, 2e-3f, 2e-3f));

  // Packed weight bytes match the Table II accounting (3-bit row), plus
  // each plane's key-load slack.
  const Footprint fp = model_footprint({512, 512, 18, 3, 32, 32},
                                       /*include_scales=*/true);
  EXPECT_EQ(kernel.packed_weight_bytes(), fp.weight_bytes + 3 * kKeySlackBytes);
}

TEST(Integration, EncoderLayerQuantizedVsFloatEndToEnd) {
  nn::TransformerConfig cfg;
  cfg.hidden = 64;
  cfg.ffn = 128;
  cfg.heads = 4;
  cfg.layers = 3;

  const nn::TransformerEncoder fp = nn::make_encoder(cfg, 1234, {});
  nn::QuantSpec spec;
  spec.weight_bits = 3;
  spec.method = nn::QuantMethod::kAlternating;
  const nn::TransformerEncoder q = nn::make_encoder(cfg, 1234, spec);

  Rng rng(4);
  const Matrix x = Matrix::random_normal(64, 10, rng);
  Matrix y_fp(64, 10), y_q(64, 10);
  fp.forward(x, y_fp);
  q.forward(x, y_q);
  EXPECT_LT(rel_fro_error(y_q, y_fp), 0.6);
}

TEST(Integration, AlternatingBeatsGreedyThroughWholeKernel) {
  Rng rng(5);
  Matrix w = Matrix::random_normal(80, 160, rng);
  Matrix x = Matrix::random_normal(160, 4, rng);
  Matrix exact(80, 4);
  gemm_ref(w, x, exact);

  const BinaryCodes greedy = quantize_greedy(w, 2);
  const BinaryCodes alt = quantize_alternating(w, 2);
  // The guarantee is in weight space: alternating never increases the
  // reconstruction error. Output error for one particular X may differ
  // slightly either way, so it only gets a loose sanity bound.
  EXPECT_LE(quant_mse(w, alt.dequantize()), quant_mse(w, greedy.dequantize()) + 1e-9);

  Matrix y_greedy(80, 4), y_alt(80, 4);
  BiqGemm(greedy).run(x, y_greedy);
  BiqGemm(alt).run(x, y_alt);
  EXPECT_LE(rel_fro_error(y_alt, exact), rel_fro_error(y_greedy, exact) * 1.25);
}

TEST(Integration, LstmWithQuantizedGatesRunsGemvPath) {
  // LAS-style shapes scaled down; every step runs two b==1 BiQGEMMs.
  nn::QuantSpec spec;
  spec.weight_bits = 2;
  nn::BiLstm bi(nn::make_lstm_cell(48, 32, 9, spec),
                nn::make_lstm_cell(48, 32, 10, spec));
  Rng rng(6);
  Matrix x = Matrix::random_normal(48, 7, rng);
  Matrix h(64, 7);
  bi.forward(x, h);
  for (std::size_t c = 0; c < 7; ++c) {
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_TRUE(std::isfinite(h(i, c)));
      EXPECT_LE(std::fabs(h(i, c)), 1.0f);
    }
  }
}

TEST(Integration, MixedPrecisionEncoderFloatAttentionQuantFfn) {
  // The LinearLayer interface allows mixing engines inside one model;
  // build attention fp32 + FFN quantized and check it still runs sanely.
  const std::size_t d = 32;
  Rng rng(7);
  auto fp_proj = [&] {
    return nn::make_linear(nn::xavier_uniform(d, d, rng),
                           std::vector<float>(), 0);
  };
  nn::MultiHeadAttention attn(fp_proj(), fp_proj(), fp_proj(), fp_proj(), 4);
  auto up = nn::make_linear(nn::xavier_uniform(2 * d, d, rng),
                            std::vector<float>(), 3);
  auto down = nn::make_linear(nn::xavier_uniform(d, 2 * d, rng),
                              std::vector<float>(), 3);
  nn::FeedForward ffn(std::move(up), std::move(down));
  nn::EncoderLayer layer(std::move(attn), std::move(ffn), d);

  const Matrix x = Matrix::random_normal(d, 5, rng);
  Matrix y(d, 5);
  layer.forward(x, y);
  for (std::size_t c = 0; c < 5; ++c) {
    for (std::size_t i = 0; i < d; ++i) EXPECT_TRUE(std::isfinite(y(i, c)));
  }
}

TEST(Integration, ThreadedPipelineMatchesSerial) {
  ThreadPool pool(4);
  Rng rng(8);
  Matrix w = Matrix::random_normal(200, 304, rng);
  Matrix x = Matrix::random_normal(304, 24, rng);
  const BinaryCodes codes = quantize_greedy(w, 3);

  ExecContext pool_ctx(&pool);
  Matrix y_serial(200, 24), y_pool(200, 24);
  BiqGemm(codes).run(x, y_serial);
  BiqGemm(codes).run(x, y_pool, pool_ctx);
  EXPECT_LT(max_abs_diff(y_serial, y_pool), 1e-5f);
}

}  // namespace
}  // namespace biq
