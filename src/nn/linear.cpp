#include "nn/linear.hpp"

#include <stdexcept>
#include <utility>

#include "nn/layernorm.hpp"
#include "quant/quantize.hpp"

namespace biq::nn {
namespace {

/// LinearLayer's frozen module step: the held GemmPlan, no slots. When
/// the step was planned with runtime_residual, the module-IR contract is
/// "add the step's own input" — run_step binds x as the residual.
class LinearStep final : public ModuleStep {
 public:
  LinearStep(const LinearLayer& layer, ModulePlanContext& mpc,
             const StepFusion& fusion)
      : plan_(layer.plan(mpc.batch(), mpc.exec(), fusion)),
        input_residual_(fusion.runtime_residual) {}

  void run_step(float* /*base*/, ConstMatrixView x,
                MatrixView y) const override {
    if (input_residual_) {
      plan_->run(x, y, x);
    } else {
      plan_->run(x, y);
    }
  }

 private:
  std::unique_ptr<GemmPlan> plan_;
  bool input_residual_;
};

}  // namespace

LinearLayer::LinearLayer(std::unique_ptr<GemmEngine> engine,
                         std::vector<float> bias)
    : engine_(std::move(engine)), bias_(std::move(bias)) {
  if (!bias_.empty() && bias_.size() != engine_->rows()) {
    throw std::invalid_argument("LinearLayer: bias size mismatch");
  }
}

Shape LinearLayer::out_shape(Shape in) const {
  check_in_rows(in, "LinearLayer");
  return {out_features(), in.cols};
}

bool LinearLayer::supports_fusion(const StepFusion& fusion) const noexcept {
  if (fusion.runtime_residual && out_features() != in_features()) return false;
  // A bare LinearStep writes the caller's y directly; it has no staging
  // block to offer a split-destination LN, so only the in-place form
  // folds here (the split form is a composite-step affair — see
  // FeedForwardStep).
  if (fusion.ln_split_dst) return false;
  if (fusion.ln != nullptr && fusion.ln->dim() != out_features()) return false;
  return true;
}

std::unique_ptr<ModuleStep> LinearLayer::plan_into(
    ModulePlanContext& mpc) const {
  return std::make_unique<LinearStep>(*this, mpc, StepFusion{});
}

std::unique_ptr<ModuleStep> LinearLayer::plan_into_fused(
    ModulePlanContext& mpc, const StepFusion& fusion) const {
  return std::make_unique<LinearStep>(*this, mpc, fusion);
}

Epilogue LinearLayer::epilogue(const StepFusion& fusion,
                               const std::vector<float>* bias) const {
  const std::vector<float>& b = bias != nullptr ? *bias : bias_;
  Epilogue ep;
  ep.bias = b.empty() ? nullptr : b.data();
  ep.act = fusion.act;
  ep.residual = fusion.runtime_residual;
  if (fusion.ln != nullptr) {
    ep.ln_gamma = fusion.ln->gamma().data();
    ep.ln_beta = fusion.ln->beta().data();
    ep.ln_eps = fusion.ln->eps();
    ep.ln_dim = fusion.ln->dim();
    ep.ln_split_dst = fusion.ln_split_dst;
  }
  return ep;
}

std::unique_ptr<GemmPlan> LinearLayer::plan(
    std::size_t batch, ExecContext& ctx, const StepFusion& fusion,
    const std::vector<float>* bias) const {
  return engine_->plan(batch, ctx, epilogue(fusion, bias));
}

std::unique_ptr<GemmPlan> LinearLayer::plan_stack(
    std::span<const LinearLayer* const> layers, std::size_t batch,
    ExecContext& ctx) {
  std::vector<StackPart> parts;
  parts.reserve(layers.size());
  for (const LinearLayer* l : layers) {
    parts.push_back({l->engine_.get(), l->epilogue({}, nullptr)});
  }
  return biq::plan_stack(parts, batch, ctx);
}

std::unique_ptr<LinearLayer> make_linear(const Matrix& w,
                                         std::vector<float> bias,
                                         unsigned bits, QuantMethod method,
                                         const BiqGemmOptions& opt) {
  if (bits == 0) {
    return std::make_unique<LinearLayer>(make_engine("blocked", w),
                                         std::move(bias));
  }
  const BinaryCodes codes = quantize(w, bits, method);
  EngineConfig cfg;
  cfg.codes = &codes;
  cfg.kernel = opt;
  return std::make_unique<LinearLayer>(make_engine("biqgemm", w, cfg),
                                       std::move(bias));
}

std::unique_ptr<LinearLayer> make_linear_engine(std::string_view engine_name,
                                                const Matrix& w,
                                                std::vector<float> bias,
                                                const EngineConfig& cfg) {
  return std::make_unique<LinearLayer>(make_engine(engine_name, w, cfg),
                                       std::move(bias));
}

}  // namespace biq::nn
