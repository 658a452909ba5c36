#include "models.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/activations.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"

namespace perfbench {
namespace {

using biq::nn::make_linear;
using biq::nn::QuantMethod;

Dense dense(std::size_t out, std::size_t in, biq::Rng& rng, bool bias) {
  Dense d{biq::nn::xavier_uniform(out, in, rng), {}};
  if (bias) {
    d.bias.resize(out);
    biq::fill_uniform(rng, d.bias.data(), out, -0.05f, 0.05f);
  }
  return d;
}

std::unique_ptr<biq::nn::LinearLayer> layer(const Dense& d, unsigned bits) {
  return make_linear(d.w, d.bias, bits, QuantMethod::kGreedy);
}

LstmCellWeights lstm_cell(biq::Rng& rng) {
  LstmCellWeights c{dense(4 * kLstmHidden, kLstmInput, rng, false),
                    dense(4 * kLstmHidden, kLstmHidden, rng, false),
                    std::vector<float>(4 * kLstmHidden, 0.0f)};
  // Forget-gate bias 1, as in common checkpoints.
  for (std::size_t j = 0; j < kLstmHidden; ++j) {
    c.gate_bias[kLstmHidden + j] = 1.0f;
  }
  return c;
}

biq::nn::LstmCell build_cell(const LstmCellWeights& c, unsigned bits) {
  return biq::nn::LstmCell(layer(c.wx, bits), layer(c.wh, bits), c.gate_bias);
}

}  // namespace

Weights make_weights() {
  biq::Rng rng(2020);
  Weights w;
  for (unsigned l = 0; l < kLayers; ++l) {
    w.encoder.push_back({dense(kHidden, kHidden, rng, true),
                         dense(kHidden, kHidden, rng, true),
                         dense(kHidden, kHidden, rng, true),
                         dense(kHidden, kHidden, rng, true),
                         dense(kFfn, kHidden, rng, true),
                         dense(kHidden, kFfn, rng, true)});
  }
  w.lstm_fw = lstm_cell(rng);
  w.lstm_bw = lstm_cell(rng);
  w.ffn_up = dense(kFfn, kHidden, rng, true);
  w.ffn_down = dense(kHidden, kFfn, rng, true);
  return w;
}

std::unique_ptr<biq::nn::TransformerEncoder> build_encoder(const Weights& w,
                                                           unsigned bits) {
  std::vector<biq::nn::EncoderLayer> layers;
  layers.reserve(w.encoder.size());
  for (const EncoderLayerWeights& lw : w.encoder) {
    biq::nn::MultiHeadAttention attention(layer(lw.wq, bits),
                                          layer(lw.wk, bits),
                                          layer(lw.wv, bits),
                                          layer(lw.wo, bits), kHeads);
    biq::nn::FeedForward ffn(layer(lw.up, bits), layer(lw.down, bits),
                             biq::nn::Act::kGelu);
    layers.emplace_back(std::move(attention), std::move(ffn), kHidden);
  }
  return std::make_unique<biq::nn::TransformerEncoder>(
      biq::nn::TransformerConfig{kHidden, kFfn, kHeads, kLayers},
      std::move(layers));
}

std::unique_ptr<biq::nn::BiLstm> build_bilstm(const Weights& w,
                                              unsigned bits) {
  return std::make_unique<biq::nn::BiLstm>(build_cell(w.lstm_fw, bits),
                                           build_cell(w.lstm_bw, bits));
}

std::unique_ptr<biq::nn::Sequential> build_ffn_block(const Weights& w,
                                                     unsigned bits) {
  auto block = std::make_unique<biq::nn::Sequential>();
  block->add(std::make_unique<biq::nn::Residual>(
      std::make_unique<biq::nn::FeedForward>(layer(w.ffn_up, bits),
                                             layer(w.ffn_down, bits),
                                             biq::nn::Act::kGelu)));
  block->add(std::make_unique<biq::nn::LayerNorm>(kHidden));
  return block;
}

const biq::nn::FeedForward& ffn_of(const biq::nn::Sequential& block) {
  const auto* res = dynamic_cast<const biq::nn::Residual*>(&block[0]);
  const auto* ffn =
      res != nullptr ? dynamic_cast<const biq::nn::FeedForward*>(&res->inner())
                     : nullptr;
  if (ffn == nullptr) throw std::logic_error("ffn_of: not an FFN block");
  return *ffn;
}

double probe_rel_err(const biq::nn::PlannableModule& q,
                     const biq::nn::PlannableModule& fp32, std::size_t cols) {
  biq::Rng rng(4242 + cols);
  biq::ExecContext ctx;
  const biq::nn::ModelPlan pq(q, cols, ctx);
  const biq::nn::ModelPlan pf(fp32, cols, ctx);
  biq::Matrix yq(pq.output_rows(), cols), yf(pf.output_rows(), cols);
  double diff2 = 0.0, ref2 = 0.0;
  for (std::size_t n = 0; n < kProbeInputs; ++n) {
    const biq::Matrix x = biq::Matrix::random_normal(q.in_rows(), cols, rng);
    pq.run(x, yq);
    pf.run(x, yf);
    for (std::size_t k = 0; k < yq.size(); ++k) {
      const double d = static_cast<double>(yq.data()[k]) - yf.data()[k];
      diff2 += d * d;
      ref2 += static_cast<double>(yf.data()[k]) * yf.data()[k];
    }
  }
  return std::sqrt(diff2 / ref2);
}

}  // namespace perfbench
