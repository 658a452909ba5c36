#include "nn/layernorm.hpp"

#include <algorithm>

#include "engine/dispatch.hpp"

namespace biq::nn {
namespace {

/// The standalone LayerNorm step: the math plane's lockstep LayerNorm
/// that the fused col_post epilogue stage runs too, src -> dst in one
/// pass, up to the plane's lanes columns per call.
class LayerNormStep final : public ModuleStep {
 public:
  LayerNormStep(const LayerNorm& ln, const engine::MathKernels& math)
      : ln_(&ln), math_(&math) {}

  void run_step(float* /*base*/, ConstMatrixView x,
                MatrixView y) const override {
    const float* src[engine::kMaxMathLanes];
    float* dst[engine::kMaxMathLanes];
    for (std::size_t c0 = 0; c0 < x.cols(); c0 += math_->lanes) {
      const std::size_t n = std::min(math_->lanes, x.cols() - c0);
      for (std::size_t j = 0; j < n; ++j) {
        src[j] = x.col(c0 + j);
        dst[j] = y.col(c0 + j);
      }
      math_->layernorm(src, dst, n, x.rows(), ln_->gamma().data(),
                       ln_->beta().data(), ln_->eps());
    }
  }

 private:
  const LayerNorm* ln_;
  const engine::MathKernels* math_;  // the plane of the planning context
};

}  // namespace

Shape LayerNorm::out_shape(Shape in) const {
  check_in_rows(in, "LayerNorm");
  return in;
}

std::unique_ptr<ModuleStep> LayerNorm::do_plan_into(
    ModulePlanContext& mpc, const Epilogue& /*fold*/) const {
  return std::make_unique<LayerNormStep>(
      *this, engine::select_plane(mpc.exec().isa()).math);
}

}  // namespace biq::nn
