// Multi-head self-attention with pluggable projection engines: the four
// n x n projections (Q, K, V, output) are LinearLayer instances, so the
// paper's workload — attention blocks whose weight GEMMs run as BiQGEMM —
// is exercised end to end while the score/softmax math stays fp32.
#pragma once

#include <memory>

#include "matrix/matrix.hpp"
#include "nn/linear.hpp"

namespace biq::nn {

class MultiHeadAttention final : public PlannableModule {
 public:
  /// All projections must be hidden x hidden; heads must divide hidden.
  MultiHeadAttention(std::unique_ptr<LinearLayer> wq,
                     std::unique_ptr<LinearLayer> wk,
                     std::unique_ptr<LinearLayer> wv,
                     std::unique_ptr<LinearLayer> wo, unsigned heads);

  /// PlannableModule (self-attention: x and y are hidden x T for T
  /// tokens): the frozen step holds one plan for Q, K and V stacked by
  /// rows (LinearLayer::plan_stack) and wo's plan, plus slots for the
  /// stacked q/k/v, the score matrix and the head context (all
  /// internal — acquired and released within plan_into).
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return hidden_;
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;

  /// The block's output is the wo projection's GEMM, so any trailing
  /// activation, the input-residual add (projections are square —
  /// shape-preserving by construction) and an in-place LayerNorm of
  /// matching dim fold into wo's plan epilogue. The split-destination
  /// LN form is rejected: the step writes the caller's y directly and
  /// has no staging block to offer.
  [[nodiscard]] bool supports_fusion(
      const Epilogue& fold) const noexcept override;

  /// The fp32 attention math over already-projected activations: per
  /// head h, scores = softmax(K_h^T Q_h / sqrt(d)) column-wise, then
  /// context_h = V_h . scores. q/k/v: hidden x T; scores: T x T scratch
  /// (overwritten); context: hidden x T (overwritten). Each head runs
  /// `math`'s attention-head kernel on strided row windows of q/k/v
  /// (engine/dispatch.hpp). The planned step runs this routine over
  /// arena slots, on the math plane of the context it was planned on.
  void attend(ConstMatrixView q, ConstMatrixView k, ConstMatrixView v,
              MatrixView scores, MatrixView context,
              const engine::MathKernels& math) const;

  [[nodiscard]] std::size_t hidden() const noexcept { return hidden_; }
  [[nodiscard]] unsigned heads() const noexcept { return heads_; }
  [[nodiscard]] std::size_t head_dim() const noexcept { return head_dim_; }
  [[nodiscard]] std::size_t weight_bytes() const noexcept;

  /// Projection layers, for planners that freeze per-projection plans.
  [[nodiscard]] const LinearLayer& wq() const noexcept { return *wq_; }
  [[nodiscard]] const LinearLayer& wk() const noexcept { return *wk_; }
  [[nodiscard]] const LinearLayer& wv() const noexcept { return *wv_; }
  [[nodiscard]] const LinearLayer& wo() const noexcept { return *wo_; }

 private:
  [[nodiscard]] std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const override;

  std::size_t hidden_;
  unsigned heads_;
  std::size_t head_dim_;
  std::unique_ptr<LinearLayer> wq_, wk_, wv_, wo_;
};

}  // namespace biq::nn
