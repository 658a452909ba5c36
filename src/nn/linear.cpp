#include "nn/linear.hpp"

#include <stdexcept>
#include <utility>

#include "quant/quantize.hpp"

namespace biq::nn {
namespace {

/// LinearLayer's frozen module step: the held GemmPlan, no slots. When
/// the plan was frozen with a residual fold, the module-IR contract is
/// "add the step's own input" — run_step binds x as the residual.
class LinearStep final : public ModuleStep {
 public:
  LinearStep(const LinearLayer& layer, ModulePlanContext& mpc,
             const Epilogue& fold)
      : plan_(layer.plan(mpc.batch(), mpc.exec(), fold)) {}

  void run_step(float* /*base*/, ConstMatrixView x,
                MatrixView y) const override {
    if (plan_->epilogue().residual) {
      plan_->run(x, y, x);
    } else {
      plan_->run(x, y);
    }
  }

 private:
  std::unique_ptr<GemmPlan> plan_;
};

/// `fold` with the layer's own bias unless the fold brings one.
Epilogue with_bias(Epilogue fold, const std::vector<float>& bias) {
  if (fold.bias == nullptr && !bias.empty()) fold.bias = bias.data();
  return fold;
}

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

bool LinearLayer::supports_fusion(const Epilogue& fold) const noexcept {
  if (fold.residual && out_features() != in_features()) return false;
  // A bare LinearStep writes the caller's y directly; it has no staging
  // block to offer a split-destination LN, so only the in-place form
  // folds here (the split form is a composite-step affair — see
  // FeedForwardStep).
  if (fold.ln_split_dst) return false;
  return fold.ln_dim == 0 || fold.ln_dim == out_features();
}

std::unique_ptr<ModuleStep> LinearLayer::do_plan_into(
    ModulePlanContext& mpc, const Epilogue& fold) const {
  return std::make_unique<LinearStep>(*this, mpc, fold);
}

std::unique_ptr<GemmPlan> LinearLayer::plan(std::size_t batch,
                                            ExecContext& ctx,
                                            const Epilogue& fold) const {
  return engine_->plan(batch, ctx, with_bias(fold, bias_));
}

std::unique_ptr<GemmPlan> LinearLayer::plan_stack(
    std::span<const LinearLayer* const> layers, std::size_t batch,
    ExecContext& ctx) {
  std::vector<StackPart> parts;
  parts.reserve(layers.size());
  for (const LinearLayer* l : layers) {
    parts.push_back({l->engine_.get(), with_bias({}, l->bias_)});
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
