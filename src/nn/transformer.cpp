#include "nn/transformer.hpp"

#include <stdexcept>
#include <string>

#include "nn/tensor.hpp"

namespace biq::nn {

FeedForward::FeedForward(std::unique_ptr<LinearLayer> up,
                         std::unique_ptr<LinearLayer> down, Act act)
    : up_(std::move(up)), down_(std::move(down)), act_(act) {
  if (up_->out_features() != down_->in_features() ||
      up_->in_features() != down_->out_features()) {
    throw std::invalid_argument("FeedForward: layer shapes must be transposed");
  }
}

EncoderLayer::EncoderLayer(MultiHeadAttention attention, FeedForward ffn,
                           std::size_t hidden)
    : attention_(std::move(attention)), ffn_(std::move(ffn)), ln1_(hidden),
      ln2_(hidden) {
  if (attention_.hidden() != hidden || ffn_.in_rows() != hidden) {
    throw std::invalid_argument(
        "EncoderLayer: attention is " + std::to_string(attention_.hidden()) +
        " wide and the FFN " + std::to_string(ffn_.in_rows()) +
        ", but hidden is " + std::to_string(hidden));
  }
}

TransformerEncoder::TransformerEncoder(TransformerConfig config,
                                       std::vector<EncoderLayer> layers)
    : config_(config), layers_(std::move(layers)) {
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (layers_[l].in_rows() != config_.hidden) {
      throw std::invalid_argument(
          "TransformerEncoder: layer " + std::to_string(l) + " is " +
          std::to_string(layers_[l].in_rows()) + " wide, config.hidden is " +
          std::to_string(config_.hidden));
    }
  }
}

namespace {

class FeedForwardStep final : public ModuleStep {
 public:
  FeedForwardStep(const FeedForward& ffn, ModulePlanContext& mpc,
                  const Epilogue& fold)
      : smid_(mpc.acquire(ffn.up().out_features(), mpc.batch())),
        up_(ffn.up().plan(mpc.batch(), mpc.exec(),
                          {.act = ffn.activation()})),
        down_(ffn.down().plan(mpc.batch(), mpc.exec(), fold)) {
    // Split-destination LN: the down projection accumulates
    // down(mid) + bias + residual into a staging slot and normalizes
    // each completed column into the step's y — which is what lets the
    // caller pass the SAME buffer as input and output (the residual may
    // alias the normalized destination; the staging block may not).
    if (fold.ln_split_dst) {
      sstage_ = mpc.acquire(ffn.down().out_features(), mpc.batch());
      mpc.release(sstage_);
    }
    mpc.release(smid_);
  }

  void run_step(float* base, ConstMatrixView x, MatrixView y) const override {
    const MatrixView mid = smid_.view(base);
    up_->run(x, mid);  // bias + activation ride the up plan's epilogue
    const Epilogue& ep = down_->epilogue();
    if (ep.ln_split_dst) {
      down_->run(mid, sstage_.view(base), x, y);  // y = LN(down(mid)+bias+x)
    } else if (ep.residual) {
      down_->run(mid, y, x);  // y = down(mid) + bias + x, one pass
    } else {
      down_->run(mid, y);
    }
  }

 private:
  ModelSlot smid_, sstage_;
  std::unique_ptr<GemmPlan> up_, down_;
};

/// Both residual→LN seams ride the sub-blocks' output projections: the
/// attention step computes y = LN1(attn(x) + x) in place (column-
/// granular epilogue) and the FFN step stages ffn(y) + bias + y in its
/// own slot, normalizing each completed column back into y (split
/// destination — the residual y aliases the final output). The
/// EncoderLayer constructor's width check guarantees both sub-blocks
/// accept these fusions.
class EncoderLayerStep final : public ModuleStep {
 public:
  EncoderLayerStep(const EncoderLayer& layer, ModulePlanContext& mpc)
      : attn_(layer.attention().plan_into(
            mpc, layer.ln1().fold({.residual = true}))),
        ffn_(layer.ffn().plan_into(
            mpc, layer.ln2().fold({.residual = true}, /*split_dst=*/true))) {}

  void run_step(float* base, ConstMatrixView x, MatrixView y) const override {
    attn_->run_step(base, x, y);  // y = LN1(attn(x) + x), one pass
    ffn_->run_step(base, y, y);   // y = LN2(ffn(y) + y), staged split-dst
  }

 private:
  std::unique_ptr<ModuleStep> attn_, ffn_;
};

}  // namespace

Shape FeedForward::out_shape(Shape in) const {
  check_in_rows(in, "FeedForward");
  return {down_->out_features(), in.cols};
}

bool FeedForward::supports_fusion(const Epilogue& fold) const noexcept {
  if (fold.ln_dim != 0 && fold.ln_dim != down_->out_features()) return false;
  return !fold.ln_split_dst || (fold.ln_dim != 0 && fold.residual);
}

std::unique_ptr<ModuleStep> FeedForward::do_plan_into(
    ModulePlanContext& mpc, const Epilogue& fold) const {
  return std::make_unique<FeedForwardStep>(*this, mpc, fold);
}

Shape EncoderLayer::out_shape(Shape in) const {
  check_in_rows(in, "EncoderLayer");
  return in;
}

std::unique_ptr<ModuleStep> EncoderLayer::do_plan_into(
    ModulePlanContext& mpc, const Epilogue& /*fold*/) const {
  return std::make_unique<EncoderLayerStep>(*this, mpc);
}

Shape TransformerEncoder::out_shape(Shape in) const {
  check_in_rows(in, "TransformerEncoder");
  return in;
}

std::unique_ptr<ModuleStep> TransformerEncoder::do_plan_into(
    ModulePlanContext& mpc, const Epilogue& /*fold*/) const {
  std::vector<const PlannableModule*> chain;
  chain.reserve(layers_.size());
  for (const EncoderLayer& layer : layers_) chain.push_back(&layer);
  return plan_chain(chain.data(), chain.size(), mpc);
}

TransformerEncoder make_encoder(const TransformerConfig& config,
                                std::uint64_t seed, const QuantSpec& spec) {
  Rng rng(seed);
  auto project = [&](std::size_t out, std::size_t in) {
    Matrix w = xavier_uniform(out, in, rng);
    std::vector<float> bias(out, 0.0f);
    return make_linear(w, std::move(bias), spec.weight_bits, spec.method,
                       spec.kernel);
  };

  std::vector<EncoderLayer> layers;
  layers.reserve(config.layers);
  for (unsigned l = 0; l < config.layers; ++l) {
    MultiHeadAttention attention(
        project(config.hidden, config.hidden), project(config.hidden, config.hidden),
        project(config.hidden, config.hidden), project(config.hidden, config.hidden),
        config.heads);
    FeedForward ffn(project(config.ffn, config.hidden),
                    project(config.hidden, config.ffn), Act::kGelu);
    layers.emplace_back(std::move(attention), std::move(ffn), config.hidden);
  }
  return TransformerEncoder(config, std::move(layers));
}

}  // namespace biq::nn
