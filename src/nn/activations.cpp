#include "nn/activations.hpp"

namespace biq::nn {

// ------------------------------------------------------------- Activation

namespace {

/// The standalone activation step (no producer to fold into): one
/// element-wise pass on the math plane of the context it was planned on.
class ActivationStep final : public ModuleStep {
 public:
  ActivationStep(Act act, const engine::MathKernels& math)
      : act_(act), math_(&math) {}

  void run_step(float* /*base*/, ConstMatrixView x,
                MatrixView y) const override {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      epilogue::activate_sweep(x.col(c), y.col(c), x.rows(), act_, *math_);
    }
  }

 private:
  Act act_;
  const engine::MathKernels* math_;
};

}  // namespace

Shape Activation::out_shape(Shape in) const {
  check_in_rows(in, "Activation");
  return in;
}

std::unique_ptr<ModuleStep> Activation::do_plan_into(
    ModulePlanContext& mpc, const Epilogue& /*fold*/) const {
  return std::make_unique<ActivationStep>(
      act_, engine::select_plane(mpc.exec().isa()).math);
}

}  // namespace biq::nn
