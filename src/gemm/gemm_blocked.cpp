#include "gemm/gemm_blocked.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "engine/dispatch.hpp"
#include "engine/partition.hpp"

namespace biq {
namespace {

class BlockedPlan final : public GemmPlan {
 public:
  BlockedPlan(const BlockedGemm& engine, const float* packed,
              std::size_t panels, const engine::BlockedKernels& kernels,
              std::size_t batch, ExecContext& ctx, const Epilogue& epilogue)
      : GemmPlan(engine.name(), engine.rows(), engine.cols(), batch, ctx,
                 epilogue),
        packed_(packed), panels_(panels), kernels_(&kernels) {}

 private:
  void execute(ConstMatrixView x, MatrixView y,
               const EpilogueOp& ep) const override {
    y.set_zero();
    // Panels write disjoint row ranges of Y, so they parallelize freely —
    // and each worker's epilogue touches only its own rows, while they
    // are still warm from the accumulation.
    engine::for_each_tile(
        context(), panels_, 1,
        [&](unsigned /*worker*/, std::size_t p0, std::size_t p1) {
          kernels_->run_panels(packed_, rows(), cols(), x, y, p0, p1);
          if (!ep.empty()) {
            ep.apply(y, p0 * engine::kBlockedPanelRows,
                     std::min(rows(), p1 * engine::kBlockedPanelRows), 0,
                     batch());
          }
        });
  }

  const float* packed_;
  std::size_t panels_;
  const engine::BlockedKernels* kernels_;
};

}  // namespace

BlockedGemm::BlockedGemm(const Matrix& w)
    : m_(w.rows()), n_(w.cols()),
      panels_((w.rows() + engine::kBlockedPanelRows - 1) /
              engine::kBlockedPanelRows),
      packed_(panels_ * engine::kBlockedPanelRows * w.cols(),
              /*zero_fill=*/true) {
  constexpr std::size_t mr = engine::kBlockedPanelRows;
  for (std::size_t p = 0; p < panels_; ++p) {
    float* panel = packed_.data() + p * mr * n_;
    const std::size_t row0 = p * mr;
    const std::size_t valid = std::min(mr, m_ - row0);
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t r = 0; r < valid; ++r) {
        panel[k * mr + r] = w(row0 + r, k);
      }
    }
  }
}

std::unique_ptr<GemmPlan> BlockedGemm::plan(std::size_t batch,
                                            ExecContext& ctx,
                                            const Epilogue& epilogue) const {
  return std::make_unique<BlockedPlan>(*this, packed_.data(), panels_,
                                       engine::select_plane(ctx.isa()).blocked,
                                       batch, ctx, epilogue);
}

void gemm_blocked(const Matrix& w, const Matrix& x, Matrix& y) {
  gemm_blocked(w, x, y, ExecContext::thread_default());
}

void gemm_blocked(const Matrix& w, const Matrix& x, Matrix& y,
                  ExecContext& ctx) {
  const BlockedGemm packed(w);
  packed.run(x, y, ctx);
}

}  // namespace biq
