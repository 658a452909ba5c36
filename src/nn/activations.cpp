#include "nn/activations.hpp"

namespace biq::nn {

void softmax_columns(MatrixView x) noexcept {
  if (x.rows() == 0) return;
  const engine::MathKernels& math = engine::math_plane();
  for (std::size_t c = 0; c < x.cols(); ++c) math.softmax(x.col(c), x.rows());
}

// ------------------------------------------------------------- Activation

namespace {

/// The standalone activation step (no producer to fold into): one
/// element-wise pass.
class ActivationStep final : public ModuleStep {
 public:
  explicit ActivationStep(Act act) : act_(act) {}

  void run_step(float* /*base*/, ConstMatrixView x,
                MatrixView y) const override {
    const EpilogueAct act = to_epilogue_act(act_);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      epilogue::activate_sweep(x.col(c), y.col(c), x.rows(), act);
    }
  }

 private:
  Act act_;
};

}  // namespace

Shape Activation::out_shape(Shape in) const {
  check_in_rows(in, "Activation");
  return in;
}

std::unique_ptr<ModuleStep> Activation::plan_into(
    ModulePlanContext& /*mpc*/) const {
  return std::make_unique<ActivationStep>(act_);
}

}  // namespace biq::nn
