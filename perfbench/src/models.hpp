// The three benchmark models, built from fp32 weights the benchmark
// generates from its seed. Generation is kept apart from building so
// that set-up time covers only what a user pays with weights in hand:
// quantize/pack, plan compilation and server prewarm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "matrix/matrix.hpp"
#include "nn/lstm.hpp"
#include "nn/module.hpp"
#include "nn/transformer.hpp"

namespace perfbench {

/// Weight bit width of every quantized model in the benchmark.
inline constexpr unsigned kBits = 2;

/// The paper's Transformer-base encoder.
inline constexpr std::size_t kHidden = 512;
inline constexpr std::size_t kFfn = 2048;
inline constexpr unsigned kHeads = 8;
inline constexpr unsigned kLayers = 6;
inline constexpr std::size_t kShortTokens = 32;
inline constexpr std::size_t kLongTokens = 128;

/// The BiLSTM acoustic encoder.
inline constexpr std::size_t kLstmInput = 320;
inline constexpr std::size_t kLstmHidden = 256;
inline constexpr std::size_t kFrames = 100;

/// The served FFN block: request widths 1..kMaxRequestCols, buckets up
/// to kMaxBatch columns.
inline constexpr std::size_t kMaxRequestCols = 4;
inline constexpr std::size_t kMaxBatch = 8;

struct Dense {
  biq::Matrix w;
  std::vector<float> bias;  // empty = no bias
};

struct EncoderLayerWeights {
  Dense wq, wk, wv, wo, up, down;
};

struct LstmCellWeights {
  Dense wx, wh;
  std::vector<float> gate_bias;
};

struct Weights {
  std::vector<EncoderLayerWeights> encoder;
  LstmCellWeights lstm_fw, lstm_bw;
  Dense ffn_up, ffn_down;
};

/// All fp32 weights of the three models. The weights are the model, so
/// they are the same on every run; --seed varies the inputs and their
/// order.
[[nodiscard]] Weights make_weights();

/// bits == 0 builds the fp32 twin from the identical weights.
[[nodiscard]] std::unique_ptr<biq::nn::TransformerEncoder> build_encoder(
    const Weights& w, unsigned bits);
[[nodiscard]] std::unique_ptr<biq::nn::BiLstm> build_bilstm(const Weights& w,
                                                           unsigned bits);
/// Residual(FeedForward 512 -> 2048 -> 512, GELU) then LayerNorm: the
/// encoder's column-independent FFN sub-block, servable by batching.
[[nodiscard]] std::unique_ptr<biq::nn::Sequential> build_ffn_block(
    const Weights& w, unsigned bits);

/// The FeedForward inside a block made by build_ffn_block.
[[nodiscard]] const biq::nn::FeedForward& ffn_of(
    const biq::nn::Sequential& block);

/// Probe inputs behind output_rel_err.
inline constexpr std::size_t kProbeInputs = 4;

/// ||y_q - y_fp32|| / ||y_fp32|| of a quantized model against its fp32
/// twin, over kProbeInputs inputs of in_rows x cols. The probe inputs
/// come from a fixed seed, not the run's: the value then moves only when
/// the program's arithmetic does.
[[nodiscard]] double probe_rel_err(const biq::nn::PlannableModule& q,
                                   const biq::nn::PlannableModule& fp32,
                                   std::size_t cols);

}  // namespace perfbench
