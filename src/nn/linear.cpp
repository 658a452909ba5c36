#include "nn/linear.hpp"

#include <stdexcept>
#include <utility>

#include "nn/layernorm.hpp"
#include "quant/error.hpp"
#include "quant/quantize.hpp"

namespace biq::nn {
namespace {

void check_bias(const std::vector<float>& bias, std::size_t m,
                const char* who) {
  if (!bias.empty() && bias.size() != m) {
    throw std::invalid_argument(std::string(who) + ": bias size mismatch");
  }
}

/// Any registered engine + bias behind the LinearLayer interface.
class EngineLinear final : public LinearLayer {
 public:
  EngineLinear(std::unique_ptr<GemmEngine> engine, std::vector<float> bias)
      : engine_(std::move(engine)), bias_(std::move(bias)) {
    check_bias(bias_, engine_->rows(), "EngineLinear");
  }

  [[nodiscard]] std::size_t in_features() const noexcept override {
    return engine_->cols();
  }
  [[nodiscard]] std::size_t out_features() const noexcept override {
    return engine_->rows();
  }
  [[nodiscard]] std::size_t weight_bytes() const noexcept override {
    return engine_->weight_bytes();
  }
  [[nodiscard]] const GemmEngine& engine() const noexcept override {
    return *engine_;
  }
  [[nodiscard]] const std::vector<float>& bias() const noexcept override {
    return bias_;
  }

 private:
  std::unique_ptr<GemmEngine> engine_;
  std::vector<float> bias_;
};

/// LinearLayer's frozen module step: the held LinearPlan, no slots. When
/// the step was planned with input_residual, the module-IR contract is
/// "add the step's own input" — run_step binds x as the residual.
class LinearStep final : public ModuleStep {
 public:
  LinearStep(const LinearLayer& layer, ModulePlanContext& mpc,
             const StepFusion& fusion)
      : plan_(layer, mpc.batch(), mpc.exec(),
              LinearFusion{fusion.act, fusion.input_residual, nullptr,
                           fusion.ln}),
        input_residual_(fusion.input_residual) {}

  void run_step(float* /*base*/, ConstMatrixView x,
                MatrixView y) const override {
    if (input_residual_) {
      plan_.run(x, y, x);
    } else {
      plan_.run(x, y);
    }
  }

 private:
  LinearPlan plan_;
  bool input_residual_;
};

}  // namespace

Shape LinearLayer::out_shape(Shape in) const {
  check_in_rows(in, "LinearLayer");
  return {out_features(), in.cols};
}

bool LinearLayer::supports_fusion(const StepFusion& fusion) const noexcept {
  if (fusion.input_residual && out_features() != in_features()) return false;
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

LinearPlan::LinearPlan(const LinearLayer& layer, std::size_t batch,
                       ExecContext& ctx, const LinearFusion& fusion) {
  const std::vector<float>& bias =
      fusion.bias != nullptr ? *fusion.bias : layer.bias();
  Epilogue ep;
  ep.bias = bias.empty() ? nullptr : bias.data();
  ep.act = fusion.act;
  ep.residual = fusion.residual;
  if (fusion.ln != nullptr) {
    ep.ln_gamma = fusion.ln->gamma().data();
    ep.ln_beta = fusion.ln->beta().data();
    ep.ln_eps = fusion.ln->eps();
    ep.ln_dim = fusion.ln->dim();
    ep.ln_split_dst = fusion.ln_split_dst;
  }
  plan_ = layer.engine().plan(batch, ctx, ep);
}

void LinearPlan::run(ConstMatrixView x, MatrixView y) const {
  plan_->run(x, y);
}

void LinearPlan::run(ConstMatrixView x, MatrixView y,
                     ConstMatrixView residual) const {
  plan_->run(x, y, residual);
}

void LinearPlan::run(ConstMatrixView x, MatrixView y, ConstMatrixView residual,
                     MatrixView ln_out) const {
  plan_->run(x, y, residual, ln_out);
}

Linear::Linear(const Matrix& w, std::vector<float> bias)
    : m_(w.rows()), n_(w.cols()), bias_(std::move(bias)) {
  check_bias(bias_, m_, "Linear");
  engine_ = make_engine("blocked", w);
}

QuantLinear::QuantLinear(const Matrix& w, std::vector<float> bias,
                         unsigned bits, QuantMethod method,
                         const BiqGemmOptions& opt)
    : m_(w.rows()), n_(w.cols()), bits_(bits), bias_(std::move(bias)) {
  check_bias(bias_, m_, "QuantLinear");
  // Quantize once; the factory packs from these codes and the same
  // codes yield the reconstruction-quality record (Table I proxy).
  const BinaryCodes codes = quantize(w, bits, method);
  EngineConfig cfg;
  cfg.codes = &codes;
  cfg.kernel = opt;
  engine_ = make_engine("biqgemm", w, cfg);
  quant_error_ = rel_fro_error(codes, w);
}

std::unique_ptr<LinearLayer> make_linear(const Matrix& w,
                                         std::vector<float> bias,
                                         unsigned bits, QuantMethod method,
                                         const BiqGemmOptions& opt) {
  if (bits == 0) return std::make_unique<Linear>(w, std::move(bias));
  return std::make_unique<QuantLinear>(w, std::move(bias), bits, method, opt);
}

std::unique_ptr<LinearLayer> make_linear_engine(std::string_view engine_name,
                                                const Matrix& w,
                                                std::vector<float> bias,
                                                const EngineConfig& cfg) {
  return std::make_unique<EngineLinear>(make_engine(engine_name, w, cfg),
                                        std::move(bias));
}

}  // namespace biq::nn
