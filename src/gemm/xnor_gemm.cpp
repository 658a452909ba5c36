#include "gemm/xnor_gemm.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "engine/partition.hpp"
#include "simd/simd.hpp"

namespace biq {

QuantizedActivations make_activation_workspace(std::size_t n,
                                               std::size_t batch,
                                               unsigned bits) {
  if (bits == 0) {
    throw std::invalid_argument(
        "make_activation_workspace: bits must be >= 1");
  }
  QuantizedActivations qa;
  qa.n = n;
  qa.batch = batch;
  qa.bits = bits;
  qa.gammas.assign(bits, std::vector<float>(batch, 0.0f));
  qa.planes.reserve(bits);
  for (unsigned q = 0; q < bits; ++q) qa.planes.emplace_back(batch, n);
  return qa;
}

void quantize_activations_into(ConstMatrixView x, QuantizedActivations& qa,
                               float* residual) {
  if (qa.n != x.rows() || qa.batch != x.cols() || qa.bits == 0) {
    throw std::invalid_argument(
        "quantize_activations_into: workspace shape mismatch");
  }
  for (PackedBits64& plane : qa.planes) plane.clear();

  for (std::size_t c = 0; c < x.cols(); ++c) {
    const float* src = x.col(c);
    for (std::size_t k = 0; k < x.rows(); ++k) residual[k] = src[k];
    for (unsigned q = 0; q < qa.bits; ++q) {
      double mag = 0.0;
      for (std::size_t k = 0; k < x.rows(); ++k) mag += std::fabs(residual[k]);
      const float gamma =
          x.rows() == 0 ? 0.0f
                        : static_cast<float>(mag / static_cast<double>(x.rows()));
      qa.gammas[q][c] = gamma;
      for (std::size_t k = 0; k < x.rows(); ++k) {
        if (residual[k] >= 0.0f) {
          qa.planes[q].set_plus_one(c, k);
          residual[k] -= gamma;
        } else {
          residual[k] += gamma;
        }
      }
    }
  }
}

QuantizedActivations quantize_activations(ConstMatrixView x, unsigned bits) {
  QuantizedActivations qa = make_activation_workspace(x.rows(), x.cols(), bits);
  std::vector<float> residual(x.rows());
  quantize_activations_into(x, qa, residual.data());
  return qa;
}

XnorGemm::XnorGemm(const BinaryCodes& weight_codes, unsigned activation_bits)
    : m_(weight_codes.rows), n_(weight_codes.cols),
      weight_bits_(weight_codes.bits), activation_bits_(activation_bits),
      alphas_(weight_codes.alphas) {
  if (activation_bits_ == 0) {
    throw std::invalid_argument("XnorGemm: activation_bits must be >= 1");
  }
  planes_.reserve(weight_bits_);
  for (unsigned q = 0; q < weight_bits_; ++q) {
    planes_.push_back(pack_rows_u64(weight_codes.planes[q]));
  }
}

std::size_t XnorGemm::weight_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const PackedBits64& p : planes_) bytes += p.storage_bytes();
  for (const auto& a : alphas_) bytes += a.size() * sizeof(float);
  return bytes;
}

void XnorGemm::run_prequantized(const QuantizedActivations& qx, MatrixView y,
                                ExecContext& ctx,
                                const EpilogueOp* ep) const {
  if (qx.n != n_ || y.rows() != m_ || y.cols() != qx.batch) {
    throw std::invalid_argument("XnorGemm: shape mismatch");
  }
  const std::size_t words = planes_[0].words_per_row();
  const auto n_int = static_cast<long long>(n_);

  // One (column, row-range) cell accumulates every (weight plane,
  // activation plane) pair in ascending order, so the per-element
  // accumulation order is independent of partitioning: bitwise
  // identical at any worker count.
  const auto cell = [&](std::size_t c, std::size_t i0, std::size_t i1) {
    float* yc = y.col(c);
    for (std::size_t qw = 0; qw < planes_.size(); ++qw) {
      const PackedBits64& wplane = planes_[qw];
      for (unsigned qa = 0; qa < qx.bits; ++qa) {
        const std::uint64_t* xrow = qx.planes[qa].row(c);
        const float gamma = qx.gammas[qa][c];
        for (std::size_t i = i0; i < i1; ++i) {
          const std::uint64_t* wrow = wplane.row(i);
          long long diff = 0;
          for (std::size_t wi = 0; wi < words; ++wi) {
            diff += simd::popcount64(wrow[wi] ^ xrow[wi]);
          }
          // Padded tail bits are 0 on both sides, so every mismatch is a
          // real element: dot = n - 2 * diff.
          const long long dot = n_int - 2 * diff;
          yc[i] += alphas_[qw][i] * gamma * static_cast<float>(dot);
        }
      }
    }
    // All plane pairs have accumulated: the cell's values are final, so
    // the fused epilogue runs now, while they are still in cache.
    if (ep != nullptr && !ep->empty()) ep->apply(y, i0, i1, c, c + 1);
  };

  y.set_zero();
  if (qx.batch > 1) {
    engine::for_each_tile(ctx, qx.batch, 1,
                          [&](unsigned /*worker*/, std::size_t c0,
                              std::size_t c1) {
                            for (std::size_t c = c0; c < c1; ++c) {
                              cell(c, 0, m_);
                            }
                          });
  } else if (qx.batch == 1) {
    engine::for_each_tile(ctx, m_, 128,
                          [&](unsigned /*worker*/, std::size_t i0,
                              std::size_t i1) { cell(0, i0, i1); });
  }
}

void XnorGemm::run_prequantized(const QuantizedActivations& qx,
                                MatrixView y) const {
  run_prequantized(qx, y, ExecContext::thread_default());
}

void XnorGemm::run(ConstMatrixView x, MatrixView y,
                   unsigned activation_bits) const {
  const QuantizedActivations qx = quantize_activations(x, activation_bits);
  run_prequantized(qx, y);
}

namespace {

class XnorPlan final : public GemmPlan {
 public:
  XnorPlan(const XnorGemm& engine, unsigned activation_bits, std::size_t batch,
           ExecContext& ctx, const Epilogue& epilogue)
      : GemmPlan(engine.name(), engine.rows(), engine.cols(), batch, ctx,
                 epilogue),
        engine_(&engine),
        // Plan-time activation-quantization sizing: the bit-plane
        // workspace and the residual buffer are allocated once here, so
        // the warm execute() reuses their storage and never touches the
        // heap for the transient quantize phase.
        workspace_(
            make_activation_workspace(engine.cols(), batch, activation_bits)),
        residual_(engine.cols()) {}

 private:
  void execute(ConstMatrixView x, MatrixView y,
               const EpilogueOp& ep) const override {
    // The plan's single-caller contract makes mutating the held
    // workspace safe; its contents are dead outside execute().
    quantize_activations_into(x, workspace_, residual_.data());
    engine_->run_prequantized(workspace_, y, context(), &ep);
  }

  const XnorGemm* engine_;
  mutable QuantizedActivations workspace_;
  mutable std::vector<float> residual_;
};

}  // namespace

std::unique_ptr<GemmPlan> XnorGemm::plan(std::size_t batch, ExecContext& ctx,
                                         const Epilogue& epilogue) const {
  return std::make_unique<XnorPlan>(*this, activation_bits_, batch, ctx,
                                    epilogue);
}

}  // namespace biq
