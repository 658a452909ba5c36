// The one projection layer: a packed GemmEngine plus a bias. The weights
// are fixed at inference (Sec. II-A), so a layer is nothing but the
// engine built from them once and the bias its epilogue adds. Every
// backend — the fp32 "blocked" reference, the paper's "biqgemm", any
// other registry name — sits behind this same class, so attention /
// feed-forward / LSTM blocks written against LinearLayer run with any
// registered engine. `make_linear` is the factory a downstream user
// adopts; `make_linear_engine` exposes the full registry by name.
//
// Execution: a layer holds no execution context and no plan. plan()
// returns the engine's GemmPlan frozen for one batch on one ExecContext
// with the bias — and any requested fold (activation, residual,
// LayerNorm) — in its epilogue, the GEMM's output loop. That
// plan is what every nn step holds per projection. Activations/outputs
// are strided views, so a layer can consume or fill a window of a
// larger buffer with zero copies.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "engine/registry.hpp"
#include "matrix/matrix.hpp"
#include "nn/module.hpp"

namespace biq::nn {

using biq::QuantMethod;  // canonical definition lives in quant/quantize.hpp

/// y = W.x + bias. x: in x batch, y: out x batch.
class LinearLayer final : public PlannableModule {
 public:
  /// Takes the packed engine; `bias` is empty (no bias) or has one entry
  /// per output row (throws std::invalid_argument otherwise).
  LinearLayer(std::unique_ptr<GemmEngine> engine, std::vector<float> bias);

  /// PlannableModule: a linear layer is a pure projection — its frozen
  /// step is one GemmPlan and it owns no internal activation slots.
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return in_features();
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;

  /// y(:, c) = W.x(:, c) + bias for every column c — a projection never
  /// mixes columns, so batching independent requests along the column
  /// axis is exact (every engine computes each column's dot products
  /// with per-column accumulators, so a column's bits do not depend on
  /// its neighbors or the batch width).
  [[nodiscard]] bool columns_independent() const noexcept override {
    return true;
  }

  /// A linear layer's output IS a GEMM plan's output, so any trailing
  /// activation folds; the input-residual add additionally needs a
  /// square projection (y and x must be the same shape); a trailing
  /// LayerNorm needs ln_dim == out_features, and only its in-place form
  /// folds (a bare step has no staging block for the split form).
  [[nodiscard]] bool supports_fusion(
      const Epilogue& fold) const noexcept override;

  /// The engine's GemmPlan for `batch` columns on `ctx`, with `fold` as
  /// its epilogue: fold.act runs after the bias, fold.residual makes
  /// every run take a residual operand (run(x, y, residual)), and a
  /// folded LayerNorm normalizes the output columns (split form:
  /// run(x, y, residual, ln_out)). The bias is fold.bias when set — how
  /// an LSTM cell's gate bias rides its bias-less recurrent projection —
  /// and the layer's own otherwise. The layer, ctx and everything the
  /// fold points at must outlive the plan.
  [[nodiscard]] std::unique_ptr<GemmPlan> plan(
      std::size_t batch, ExecContext& ctx, const Epilogue& fold = {}) const;

  /// The row stack of `layers` (equal in_features) as one GemmPlan for
  /// `batch` columns on `ctx` (engine/gemm_engine.hpp's plan_stack): its
  /// y is the layers' outputs stacked by rows, and each layer's row
  /// block is bitwise what its own plan(batch, ctx) writes, bias
  /// included. No weight is copied; the layers and ctx must outlive the
  /// plan.
  [[nodiscard]] static std::unique_ptr<GemmPlan> plan_stack(
      std::span<const LinearLayer* const> layers, std::size_t batch,
      ExecContext& ctx);

  [[nodiscard]] std::size_t in_features() const noexcept {
    return engine_->cols();
  }
  [[nodiscard]] std::size_t out_features() const noexcept {
    return engine_->rows();
  }
  /// Bytes of weight storage inference reads (packed form for quantized).
  [[nodiscard]] std::size_t weight_bytes() const noexcept {
    return engine_->weight_bytes();
  }
  /// The GemmEngine the layer runs through.
  [[nodiscard]] const GemmEngine& engine() const noexcept { return *engine_; }
  /// The layer's bias vector (empty = no bias).
  [[nodiscard]] const std::vector<float>& bias() const noexcept {
    return bias_;
  }

 private:
  [[nodiscard]] std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const override;

  std::unique_ptr<GemmEngine> engine_;
  std::vector<float> bias_;
};

/// Quantization policy for every weight matrix of a model build.
/// weight_bits == 0 means fp32 (the reference build).
struct QuantSpec {
  unsigned weight_bits = 0;
  QuantMethod method = QuantMethod::kGreedy;
  BiqGemmOptions kernel;
};

/// Factory: bits == 0 builds the registry's fp32 "blocked" engine over
/// w; any other value quantizes w to `bits` planes with `method` (once —
/// the weights are fixed during inference) and packs them into a
/// "biqgemm" engine with `opt`.
[[nodiscard]] std::unique_ptr<LinearLayer> make_linear(
    const Matrix& w, std::vector<float> bias, unsigned bits,
    QuantMethod method = QuantMethod::kGreedy, const BiqGemmOptions& opt = {});

/// Registry-generic layer: ANY registered engine (by name) plus a bias —
/// how a new backend reaches the model zoo without new layer classes.
[[nodiscard]] std::unique_ptr<LinearLayer> make_linear_engine(
    std::string_view engine_name, const Matrix& w, std::vector<float> bias,
    const EngineConfig& cfg = {});

}  // namespace biq::nn
