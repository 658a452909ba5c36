#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>

namespace biq::nn {

void softmax_columns(MatrixView x) noexcept {
  for (std::size_t c = 0; c < x.cols(); ++c) {
    float* col = x.col(c);
    float peak = col[0];
    for (std::size_t i = 1; i < x.rows(); ++i) peak = std::max(peak, col[i]);
    float sum = 0.0f;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      col[i] = std::exp(col[i] - peak);
      sum += col[i];
    }
    const float inv = 1.0f / sum;
    for (std::size_t i = 0; i < x.rows(); ++i) col[i] *= inv;
  }
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
      const float* src = x.col(c);
      float* dst = y.col(c);
      for (std::size_t i = 0; i < x.rows(); ++i) {
        dst[i] = epilogue::activate(src[i], act);
      }
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
