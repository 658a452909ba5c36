// XNOR-popcount GEMM baseline (Rastegari et al. / Courbariaux et al.;
// the paper's `xnor` comparator). Unlike BiQGEMM it quantizes the
// activations too: each activation column is greedily sign-quantized
// into beta_a bit-planes with per-column scales, and every
// (weight-plane, activation-plane) pair contributes
//     alpha_i * gamma_c * (n - 2 * popcount(w_row XOR x_col))
// computed on 64-bit packed words. Complexity O(bw * ba * m * n/64 * b).
#pragma once

#include <string_view>
#include <vector>

#include "engine/gemm_engine.hpp"
#include "matrix/matrix.hpp"
#include "matrix/packing.hpp"
#include "quant/binary_codes.hpp"

namespace biq {

/// Greedy per-column sign quantization of activations (the on-the-fly
/// step the paper charges against xnor): plane q gets sign(residual) and
/// scale mean|residual|, packed 64 bits/word. Exposed for tests.
struct QuantizedActivations {
  std::size_t n = 0;
  std::size_t batch = 0;
  unsigned bits = 0;
  std::vector<PackedBits64> planes;          // planes[q], rows = batch
  std::vector<std::vector<float>> gammas;    // gammas[q][column]
};

[[nodiscard]] QuantizedActivations quantize_activations(ConstMatrixView x,
                                                        unsigned bits);

/// Sizes a reusable quantization workspace for (n rows, batch columns,
/// bits planes) — the plan-time step of the xnor plan/run split.
[[nodiscard]] QuantizedActivations make_activation_workspace(std::size_t n,
                                                             std::size_t batch,
                                                             unsigned bits);

/// Quantizes x into a pre-sized workspace, reusing its storage — the
/// warm-path counterpart of quantize_activations: zero heap allocations
/// once the workspace exists. `residual` must hold qa.n floats. Throws
/// std::invalid_argument when the workspace shape does not match x.
void quantize_activations_into(ConstMatrixView x, QuantizedActivations& qa,
                               float* residual);

class XnorGemm final : public GemmEngine {
 public:
  /// Packs the weight planes once (weights are fixed at inference time).
  /// `activation_bits` is the on-the-fly activation quantization depth
  /// used by the GemmEngine run(x, y) overload.
  explicit XnorGemm(const BinaryCodes& weight_codes,
                    unsigned activation_bits = 1);

  /// plan->run quantizes X on the fly into `activation_bits` planes and
  /// runs the popcount GEMM. Results approximate W.X with both-sides
  /// quantization error, matching what the paper's xnor kernel computes.
  /// The epilogue is applied per (column, row-range) cell once all plane
  /// pairs have accumulated.
  [[nodiscard]] std::unique_ptr<GemmPlan> plan(
      std::size_t batch, ExecContext& ctx,
      const Epilogue& epilogue) const override;
  using GemmEngine::plan;

  /// One-shot form with an explicit activation depth for this call.
  void run(ConstMatrixView x, MatrixView y, unsigned activation_bits) const;
  using GemmEngine::run;

  /// Popcount GEMM against pre-quantized activations (separates the
  /// quantization cost from the multiply cost in the benches). Work
  /// splits over batch columns (rows when b == 1) across ctx's pool.
  void run_prequantized(const QuantizedActivations& qx, MatrixView y) const;
  void run_prequantized(const QuantizedActivations& qx, MatrixView y,
                        ExecContext& ctx, const EpilogueOp* ep = nullptr) const;

  [[nodiscard]] std::size_t rows() const noexcept override { return m_; }
  [[nodiscard]] std::size_t cols() const noexcept override { return n_; }
  /// Packed weight planes + per-row scales.
  [[nodiscard]] std::size_t weight_bytes() const noexcept override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "xnor";
  }

 private:
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  unsigned weight_bits_ = 0;
  unsigned activation_bits_ = 1;
  std::vector<PackedBits64> planes_;
  std::vector<std::vector<float>> alphas_;
};

}  // namespace biq
