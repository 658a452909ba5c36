// LayerNorm over the feature dimension (rows) of each column — the
// operation the paper cites as the reason Transformers keep needing
// floating-point math even under INT8 quantization (Sec. II-A). Runs in
// fp32 here, which binary-coding weight quantization permits without any
// format conversions.
#pragma once

#include <vector>

#include "matrix/matrix.hpp"
#include "nn/module.hpp"

namespace biq::nn {

class LayerNorm final : public PlannableModule {
 public:
  explicit LayerNorm(std::size_t dim, float eps = 1e-5f)
      : gamma_(dim, 1.0f), beta_(dim, 0.0f), eps_(eps) {}

  [[nodiscard]] std::size_t dim() const noexcept { return gamma_.size(); }

  [[nodiscard]] std::vector<float>& gamma() noexcept { return gamma_; }
  [[nodiscard]] std::vector<float>& beta() noexcept { return beta_; }
  [[nodiscard]] const std::vector<float>& gamma() const noexcept {
    return gamma_;
  }
  [[nodiscard]] const std::vector<float>& beta() const noexcept {
    return beta_;
  }
  [[nodiscard]] float eps() const noexcept { return eps_; }

  /// `ep` with this LayerNorm folded in as its column-granular stage:
  /// each output column is normalized the moment the producer's GEMM
  /// completes it. With split_dst the producer's y becomes a pre-norm
  /// staging block and the normalized columns land in a separate
  /// destination (this requires ep.residual — it exists so the residual
  /// operand may alias the final output). The LayerNorm must outlive
  /// any plan frozen with the result.
  [[nodiscard]] Epilogue fold(Epilogue ep = {},
                              bool split_dst = false) const noexcept {
    ep.ln_gamma = gamma_.data();
    ep.ln_beta = beta_.data();
    ep.ln_eps = eps_;
    ep.ln_dim = dim();
    ep.ln_split_dst = split_dst;
    return ep;
  }

  /// PlannableModule: shape-preserving, no GEMMs, no internal slots.
  /// Each column is normalized over rows (per-column mean/variance),
  /// then scaled by gamma and shifted by beta — standalone, or folded
  /// into the preceding projection's column-granular epilogue.
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return dim();
  }
  /// Mean/variance are per column over rows — columns never interact.
  [[nodiscard]] bool columns_independent() const noexcept override {
    return true;
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;

 private:
  [[nodiscard]] std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const override;

  std::vector<float> gamma_;
  std::vector<float> beta_;
  float eps_;
};

}  // namespace biq::nn
