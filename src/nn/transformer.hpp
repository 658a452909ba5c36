// Transformer encoder stack — the workload class the paper's evaluation
// is motivated by (Sec. II-C/D): per layer, one attention block of four
// (n x n) projections and a feed-forward block of (4n x n) and (n x 4n)
// matrices. Built either fp32 or binary-coding quantized from identical
// deterministic weights, so outputs are directly comparable.
#pragma once

#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"

namespace biq::nn {

struct TransformerConfig {
  std::size_t hidden = 512;
  std::size_t ffn = 2048;
  unsigned heads = 8;
  unsigned layers = 6;

  /// Paper Sec. II-C: base model n=512, 6 layers; big model n=1024.
  static TransformerConfig base() { return {512, 2048, 8, 6}; }
  static TransformerConfig big() { return {1024, 4096, 16, 6}; }
};

class FeedForward final : public PlannableModule {
 public:
  FeedForward(std::unique_ptr<LinearLayer> up, std::unique_ptr<LinearLayer> down,
              Act act = Act::kGelu);

  /// PlannableModule (x, y: hidden x T): the frozen step holds the
  /// up/down plans plus one internal slot for the ffn x T intermediate;
  /// the activation between them rides the up projection's epilogue.
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return up_->in_features();
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;

  /// Two projections and an element-wise activation: per-token (per
  /// column), so an FFN/MLP block batches exactly along columns.
  [[nodiscard]] bool columns_independent() const noexcept override {
    return true;
  }

  /// The block's output is the down-projection's GEMM, and the block is
  /// shape-preserving by construction — any trailing activation, the
  /// input-residual add and a trailing LayerNorm of matching dim fold
  /// into that plan's epilogue. (The internal activation between up and
  /// down folds into the UP projection's epilogue regardless — see
  /// FeedForwardStep.) Unlike a bare LinearLayer, the split-destination LN
  /// form IS supported: the step stages the pre-norm sublayer output in
  /// its own planner slot, which is what lets the residual operand
  /// alias the step's final output (the encoder's second seam).
  [[nodiscard]] bool supports_fusion(
      const Epilogue& fold) const noexcept override;

  [[nodiscard]] std::size_t weight_bytes() const noexcept {
    return up_->weight_bytes() + down_->weight_bytes();
  }

  [[nodiscard]] const LinearLayer& up() const noexcept { return *up_; }
  [[nodiscard]] const LinearLayer& down() const noexcept { return *down_; }
  [[nodiscard]] Act activation() const noexcept { return act_; }

 private:
  [[nodiscard]] std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const override;

  std::unique_ptr<LinearLayer> up_, down_;
  Act act_;
};

/// Post-LN residual block (original Transformer):
/// y = LN1(Attn(x) + x); y <- LN2(FFN(y) + y).
class EncoderLayer final : public PlannableModule {
 public:
  /// Throws std::invalid_argument unless the attention block and the
  /// FFN are both `hidden` wide.
  EncoderLayer(MultiHeadAttention attention, FeedForward ffn,
               std::size_t hidden);

  /// PlannableModule: both residual→LN seams ride the sub-blocks'
  /// output projections — the attention step writes LN1(attn(x) + x)
  /// straight into y and the FFN step stages its pre-norm output in a
  /// planner slot and normalizes into y. The FFN intermediate reuses
  /// the attention scratch (released first) — the big liveness win.
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return ln1_.dim();
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;

  [[nodiscard]] std::size_t weight_bytes() const noexcept {
    return attention_.weight_bytes() + ffn_.weight_bytes();
  }

  /// Sub-blocks, for planners that freeze the layer's forward pass.
  [[nodiscard]] const MultiHeadAttention& attention() const noexcept {
    return attention_;
  }
  [[nodiscard]] const FeedForward& ffn() const noexcept { return ffn_; }
  [[nodiscard]] const LayerNorm& ln1() const noexcept { return ln1_; }
  [[nodiscard]] const LayerNorm& ln2() const noexcept { return ln2_; }

 private:
  [[nodiscard]] std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const override;

  MultiHeadAttention attention_;
  FeedForward ffn_;
  LayerNorm ln1_, ln2_;
};

class TransformerEncoder final : public PlannableModule {
 public:
  /// Throws std::invalid_argument unless every layer is config.hidden
  /// wide.
  TransformerEncoder(TransformerConfig config,
                     std::vector<EncoderLayer> layers);

  /// PlannableModule (x, y: hidden x T): a chain of EncoderLayer
  /// modules through the generic plan_chain walker — no
  /// encoder-specific compile path.
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return config_.hidden;
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;

  [[nodiscard]] const TransformerConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
  [[nodiscard]] const std::vector<EncoderLayer>& layers() const noexcept {
    return layers_;
  }

  [[nodiscard]] std::size_t weight_bytes() const noexcept {
    std::size_t total = 0;
    for (const EncoderLayer& layer : layers_) total += layer.weight_bytes();
    return total;
  }

 private:
  [[nodiscard]] std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const override;

  TransformerConfig config_;
  std::vector<EncoderLayer> layers_;
};

/// Builds an encoder with deterministic Xavier weights derived from
/// `seed`. Two calls with the same (config, seed) and different specs
/// produce models with IDENTICAL underlying fp32 weights — one float,
/// one quantized — enabling apples-to-apples accuracy/latency studies.
[[nodiscard]] TransformerEncoder make_encoder(const TransformerConfig& config,
                                              std::uint64_t seed,
                                              const QuantSpec& spec);

}  // namespace biq::nn
