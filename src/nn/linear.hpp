// Fully-connected layers over the pluggable GemmEngine interface. Both
// the float reference (`Linear`) and the quantized layer (`QuantLinear`)
// obtain their kernel from the EngineRegistry — "blocked" and "biqgemm"
// respectively — instead of baking in concrete types, so attention /
// feed-forward / LSTM blocks written against `LinearLayer` run with any
// registered backend, present or future. `make_linear` is the factory a
// downstream user adopts; `make_linear_engine` exposes the full registry
// (any engine name) behind the same LinearLayer surface.
//
// Execution: a layer is weights plus bias and nothing else — it holds no
// execution context and no plan. It runs as a module step of a compiled
// nn::ModelPlan (one LinearPlan: the engine's GemmPlan frozen for the
// batch, with the bias folded into its epilogue), under whatever
// ExecContext that plan was compiled for. Activations/outputs are
// strided views, so a layer can consume or fill a window of a larger
// buffer with zero copies.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "engine/registry.hpp"
#include "matrix/matrix.hpp"
#include "nn/module.hpp"

namespace biq::nn {

using biq::QuantMethod;  // canonical definition lives in quant/quantize.hpp

/// y = W.x + bias. x: in x batch, y: out x batch.
class LinearLayer : public PlannableModule {
 public:
  /// PlannableModule: a linear layer is a pure projection — its frozen
  /// step is one LinearPlan and it owns no internal activation slots.
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return in_features();
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;
  [[nodiscard]] std::unique_ptr<ModuleStep> plan_into(
      ModulePlanContext& mpc) const override;

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
  /// LayerNorm needs dim == out_features (and its split-destination
  /// form needs the residual seat filled). Defined in linear.cpp —
  /// LayerNorm is only forward-declared here.
  [[nodiscard]] bool supports_fusion(
      const StepFusion& fusion) const noexcept override;
  [[nodiscard]] std::unique_ptr<ModuleStep> plan_into_fused(
      ModulePlanContext& mpc, const StepFusion& fusion) const override;

  [[nodiscard]] virtual std::size_t in_features() const noexcept = 0;
  [[nodiscard]] virtual std::size_t out_features() const noexcept = 0;

  /// Bytes of weight storage inference reads (packed form for quantized).
  [[nodiscard]] virtual std::size_t weight_bytes() const noexcept = 0;

  /// The GemmEngine the layer forwards through.
  [[nodiscard]] virtual const GemmEngine& engine() const noexcept = 0;

  /// The layer's bias vector (empty = no bias). Whole-model planners
  /// freeze forward passes outside the virtual dispatch, so the bias
  /// must be reachable through the interface.
  [[nodiscard]] virtual const std::vector<float>& bias() const noexcept = 0;
};

/// Extra work folded into a LinearPlan's GEMM epilogue beyond the
/// layer's own bias: a trailing activation, a run-time residual operand,
/// and optionally a bias OVERRIDE (`bias` non-null replaces the layer's
/// own — how an LSTM cell's gate bias rides its bias-less recurrent
/// projection). The override must outlive the plan.
struct LinearFusion {
  EpilogueAct act = EpilogueAct::kNone;
  bool residual = false;
  const std::vector<float>* bias = nullptr;
  /// Trailing LayerNorm folded over the plan's output columns (borrowed;
  /// must outlive the plan; nullptr = none). With ln_split_dst the
  /// plan's y becomes a pre-norm staging block and runs take a separate
  /// ln_out destination (requires residual = true — see
  /// engine/gemm_engine.hpp).
  const LayerNorm* ln = nullptr;
  bool ln_split_dst = false;
};

/// One layer's frozen forward: the engine's GemmPlan for a fixed batch,
/// with the layer's bias — and any requested LinearFusion — folded into
/// the plan's epilogue. This is the building block nn::ModelPlan holds
/// per projection, with zero per-call planning. Borrows the layer and
/// the context; both must outlive the plan.
class LinearPlan {
 public:
  LinearPlan() = default;
  LinearPlan(const LinearLayer& layer, std::size_t batch, ExecContext& ctx,
             const LinearFusion& fusion = {});

  /// y = act(W.x + bias) through the frozen recipe. x: in x batch,
  /// y: out x batch (overwritten); both may be strided windows. Only for
  /// plans without residual fusion (throws otherwise).
  void run(ConstMatrixView x, MatrixView y) const;

  /// y = act(W.x + bias) + residual — the residual-fused hot path. Only
  /// for plans frozen with fusion.residual = true (throws otherwise);
  /// `residual` must not overlap y.
  void run(ConstMatrixView x, MatrixView y, ConstMatrixView residual) const;

  /// Split-destination LN path: the staging y receives
  /// act(W.x + bias) + residual and each completed column is normalized
  /// into ln_out. Only for plans frozen with fusion.ln_split_dst;
  /// ln_out may alias residual but not y.
  void run(ConstMatrixView x, MatrixView y, ConstMatrixView residual,
           MatrixView ln_out) const;

  [[nodiscard]] std::size_t batch() const noexcept {
    return plan_ != nullptr ? plan_->batch() : 0;
  }

 private:
  std::unique_ptr<GemmPlan> plan_;
};

/// fp32 layer; kernel = registry "blocked" (pre-packed blocked GEMM).
class Linear final : public LinearLayer {
 public:
  Linear(const Matrix& w, std::vector<float> bias);

  [[nodiscard]] std::size_t in_features() const noexcept override { return n_; }
  [[nodiscard]] std::size_t out_features() const noexcept override { return m_; }
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
  std::size_t m_, n_;
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

/// Binary-coding quantized layer; kernel = registry "biqgemm". Quantizes
/// at construction (weights are fixed during inference — Sec. II-A);
/// keeps only packed keys + scales + bias.
class QuantLinear final : public LinearLayer {
 public:
  QuantLinear(const Matrix& w, std::vector<float> bias, unsigned bits,
              QuantMethod method = QuantMethod::kGreedy,
              const BiqGemmOptions& opt = {});

  [[nodiscard]] std::size_t in_features() const noexcept override { return n_; }
  [[nodiscard]] std::size_t out_features() const noexcept override { return m_; }
  [[nodiscard]] std::size_t weight_bytes() const noexcept override {
    return engine_->weight_bytes();
  }

  [[nodiscard]] const GemmEngine& engine() const noexcept override {
    return *engine_;
  }
  [[nodiscard]] const std::vector<float>& bias() const noexcept override {
    return bias_;
  }
  [[nodiscard]] unsigned bits() const noexcept { return bits_; }

  /// Relative Frobenius error of the dequantized weights vs the
  /// originals, recorded at construction (Table I quality proxy).
  [[nodiscard]] double quantization_error() const noexcept { return quant_error_; }

 private:
  std::size_t m_, n_;
  unsigned bits_;
  std::unique_ptr<GemmEngine> engine_;
  std::vector<float> bias_;
  double quant_error_ = 0.0;
};

/// Factory: bits == 0 returns the float layer, otherwise QuantLinear.
[[nodiscard]] std::unique_ptr<LinearLayer> make_linear(
    const Matrix& w, std::vector<float> bias, unsigned bits,
    QuantMethod method = QuantMethod::kGreedy, const BiqGemmOptions& opt = {});

/// Registry-generic layer: wraps ANY registered engine (by name) plus a
/// bias behind the LinearLayer interface — how a new backend reaches the
/// model zoo without new layer classes.
[[nodiscard]] std::unique_ptr<LinearLayer> make_linear_engine(
    std::string_view engine_name, const Matrix& w, std::vector<float> bias,
    const EngineConfig& cfg = {});

}  // namespace biq::nn
