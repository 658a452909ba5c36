// Element-wise non-linearities. Activations stay fp32 throughout (the
// paper quantizes weights only; Sec. II argues activation quantization
// costs accuracy and on-the-fly conversion work).
//
// The activation sweep lives in engine/epilogue.hpp so a non-linearity
// fused into a GEMM plan's output loop and a standalone Activation step
// are THE SAME arithmetic — bitwise, not approximately. Both run their
// transcendentals on a per-ISA math plane (engine/dispatch.hpp), one
// vectorized exp shared by every caller: a planned step uses the plane
// of the ExecContext it was planned on.
#pragma once

#include "engine/epilogue.hpp"
#include "matrix/matrix.hpp"
#include "nn/module.hpp"

namespace biq::nn {

/// The activation tag is the engine epilogue's own: a standalone
/// Activation step and a fold into a producer's GEMM name the same
/// non-linearity the same way. kNone is the identity.
using Act = EpilogueAct;

/// Element-wise activation as a module: y(i, c) = act(x(i, c)), with
/// GELU in its tanh approximation (as used by BERT-family models). Shape
/// preserving, no weights, no internal slots. Inside a plan_chain a
/// LinearLayer -> Activation adjacency is folded into the producer's GEMM
/// epilogue (the step below never runs); standalone it is a plain
/// element-wise pass.
class Activation final : public PlannableModule {
 public:
  Activation(std::size_t dim, Act act) : dim_(dim), act_(act) {}

  [[nodiscard]] Act activation() const noexcept { return act_; }

  [[nodiscard]] std::size_t in_rows() const noexcept override { return dim_; }
  [[nodiscard]] Shape out_shape(Shape in) const override;
  /// Element-wise: trivially column-independent.
  [[nodiscard]] bool columns_independent() const noexcept override {
    return true;
  }

 private:
  [[nodiscard]] std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const override;

  std::size_t dim_;
  Act act_;
};

}  // namespace biq::nn
