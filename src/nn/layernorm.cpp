#include "nn/layernorm.hpp"

#include "engine/epilogue.hpp"

namespace biq::nn {
namespace {

/// The standalone LayerNorm step: the same per-column normalize
/// (engine/epilogue.hpp's layernorm_col) that the fused col_post
/// epilogue stage runs, src -> dst in one pass.
class LayerNormStep final : public ModuleStep {
 public:
  explicit LayerNormStep(const LayerNorm& ln) : ln_(&ln) {}

  void run_step(float* /*base*/, ConstMatrixView x,
                MatrixView y) const override {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      epilogue::layernorm_col(x.col(c), y.col(c), x.rows(),
                              ln_->gamma().data(), ln_->beta().data(),
                              ln_->eps());
    }
  }

 private:
  const LayerNorm* ln_;
};

}  // namespace

Shape LayerNorm::out_shape(Shape in) const {
  check_in_rows(in, "LayerNorm");
  return in;
}

std::unique_ptr<ModuleStep> LayerNorm::plan_into(
    ModulePlanContext& /*mpc*/) const {
  return std::make_unique<LayerNormStep>(*this);
}

}  // namespace biq::nn
