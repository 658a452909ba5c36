// Cache-blocked, vectorized fp32 GEMM — the library's stand-in for the
// paper's Eigen/MKL baselines ("sGEMM"): a well-optimized dense kernel
// with packed row panels and an 8x4 FMA microkernel. It never sees
// quantized data; quantized weights stored one-bit-per-float-container
// run at exactly this speed, which is the paper's sGEMM scenario.
//
// The microkernel itself lives in the per-ISA kernel TUs
// (engine/blocked_kernels_impl.hpp — scalar always, AVX2/AVX-512 when
// compiled) and each plan picks its plane from its ExecContext, the same
// treatment as the BiQGEMM hot loops: panels packed here are
// ISA-independent, and one binary serves every host.
#pragma once

#include <string_view>

#include "engine/gemm_engine.hpp"
#include "matrix/matrix.hpp"

namespace biq {

/// One-shot blocked GEMM: Y = W . X (shapes as gemm_ref), serial.
void gemm_blocked(const Matrix& w, const Matrix& x, Matrix& y);

/// One-shot form with call-time execution state (pool / kernel plane).
void gemm_blocked(const Matrix& w, const Matrix& x, Matrix& y,
                  ExecContext& ctx);

/// Weight-stationary form for repeated multiplications against the same
/// W (inference): packs W once into microkernel panels.
class BlockedGemm final : public GemmEngine {
 public:
  /// Packs W into microkernel panels.
  explicit BlockedGemm(const Matrix& w);

  /// Freezes the microkernel plane (ctx's isa) for `batch` columns;
  /// plan->run computes Y = W . X from
  /// the pre-packed panels, partitioned across ctx's pool through the
  /// shared tile partitioner. The epilogue is applied per row panel,
  /// right after that panel's accumulation finishes.
  [[nodiscard]] std::unique_ptr<GemmPlan> plan(
      std::size_t batch, ExecContext& ctx,
      const Epilogue& epilogue) const override;
  using GemmEngine::plan;

  [[nodiscard]] std::size_t rows() const noexcept override { return m_; }
  [[nodiscard]] std::size_t cols() const noexcept override { return n_; }
  /// Logical fp32 weight traffic (the padded panel storage is
  /// packed_bytes()).
  [[nodiscard]] std::size_t weight_bytes() const noexcept override {
    return m_ * n_ * sizeof(float);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "blocked";
  }
  [[nodiscard]] std::size_t packed_bytes() const noexcept {
    return packed_.size_bytes();
  }

 private:
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::size_t panels_ = 0;  // ceil(m / 8)
  // Panel-major packed weights: panel p holds 8*n floats, layout
  // packed[p*8*n + k*8 + r] = W(8p + r, k), zero-padded past row m.
  AlignedBuffer<float> packed_;
};

}  // namespace biq
