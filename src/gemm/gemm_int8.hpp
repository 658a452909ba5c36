// Fixed-point (INT8-style) GEMM — the "uniform quantization" execution
// path the paper contrasts against in Sec. II-A: both weights AND
// activations must be quantized on the fly, multiplied in integer
// arithmetic with int32 accumulation, and converted back to fp32 for the
// float-only operators around the GEMM (LayerNorm, softmax). The paper
// cites a 15-30% overhead for those conversions; the
// ablation_int8_conversion bench measures the equivalent split here.
#pragma once

#include <cstdint>
#include <string_view>

#include "engine/gemm_engine.hpp"
#include "matrix/matrix.hpp"
#include "quant/uniform.hpp"
#include "util/aligned_buffer.hpp"

namespace biq {

/// Weight-stationary int8 GEMM engine. Weights are quantized once at
/// construction (symmetric per-tensor, like the paper's INT8 baseline);
/// activations are quantized per run() call — the dynamic-quantization
/// cost the paper charges against fixed-point inference.
class Int8Gemm final : public GemmEngine {
 public:
  /// Quantizes w (m x n fp32) to int8 with a single symmetric scale.
  explicit Int8Gemm(const Matrix& w);

  /// plan->run computes Y = dequant(int8(W) . int8(X)): quantizes X
  /// column-wise to int8, multiplies in int32, dequantizes into fp32 Y.
  /// All three phases split across ctx's pool (integer arithmetic —
  /// bitwise identical at any worker count); transient buffers live in
  /// ctx's arena. The epilogue is fused into the phase-3 dequantize
  /// loop, so fp32 values are touched exactly once.
  [[nodiscard]] std::unique_ptr<GemmPlan> plan(
      std::size_t batch, ExecContext& ctx,
      const Epilogue& epilogue) const override;
  using GemmEngine::plan;

  /// The three phases separately, for the conversion-overhead ablation:
  /// quantize_input -> multiply_integer -> dequantize_output. The same
  /// bodies as plan->run, timed; outputs are bitwise the plan's.
  struct Phases {
    double quantize_seconds = 0.0;
    double multiply_seconds = 0.0;
    double dequantize_seconds = 0.0;
  };
  void run_profiled(ConstMatrixView x, MatrixView y, Phases& phases) const;

  [[nodiscard]] std::size_t rows() const noexcept override { return m_; }
  [[nodiscard]] std::size_t cols() const noexcept override { return n_; }
  [[nodiscard]] float weight_scale() const noexcept { return wscale_; }
  [[nodiscard]] std::size_t weight_bytes() const noexcept override {
    return weights_.size_bytes();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "int8";
  }

 private:
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  float wscale_ = 1.0f;
  AlignedBuffer<std::int8_t> weights_;  // row-major m x n

  class Plan;  // the GemmPlan body, defined in gemm_int8.cpp

  // The run's phases over ctx's arena frame. Each reads the clock only
  // when `phases` is non-null, so the plan's hot path times nothing.
  void run_phases(ConstMatrixView x, MatrixView y, ExecContext& ctx,
                  const EpilogueOp* ep, Phases* phases) const;
  /// Phase 1: per-column symmetric quantization of x (xq: n*b int8,
  /// column c at xq + c*n; xscales: b floats).
  void quantize_grid(ConstMatrixView x, std::int8_t* xq, float* xscales,
                     ExecContext& ctx, Phases* phases) const;
  /// Phases 2+3 against the quantized grid (acc: m*b int32 transient).
  void consume_grid(const std::int8_t* xq, const float* xscales, MatrixView y,
                    std::int32_t* acc, ExecContext& ctx, const EpilogueOp* ep,
                    Phases* phases) const;
};

}  // namespace biq
