#include "gemm/gemm_int8.hpp"

#include <memory>
#include <stdexcept>

#include "engine/partition.hpp"
#include "quant/lowbit.hpp"
#include "util/timer.hpp"

namespace biq {
namespace {

/// The run's transient arena frame: quantized activations, per-column
/// scales, int32 accumulators. ONE definition shared by the hot path
/// and the plan's plan-time prewarm, so the prewarmed high-water mark
/// can never desynchronize from what the run actually allocates.
struct Int8Frame {
  std::int8_t* xq;
  float* xscales;
  std::int32_t* acc;
};

Int8Frame stage_int8_frame(ScratchArena& arena, std::size_t m, std::size_t n,
                           std::size_t b) {
  arena.reset();
  Int8Frame f;
  f.xq = arena.alloc<std::int8_t>(n * b);
  f.xscales = arena.alloc<float>(b);
  f.acc = arena.alloc<std::int32_t>(m * b);
  return f;
}

/// Runs f, adding its wall time to phases->*slot when phases is set;
/// without phases the clock is never read.
template <typename F>
void timed(Int8Gemm::Phases* phases, double Int8Gemm::Phases::*slot, F&& f) {
  if (phases == nullptr) {
    f();
    return;
  }
  const Stopwatch watch;
  f();
  phases->*slot += watch.elapsed_seconds();
}

}  // namespace

Int8Gemm::Int8Gemm(const Matrix& w)
    : m_(w.rows()), n_(w.cols()), weights_(w.rows() * w.cols()) {
  const UniformQuantized q = quantize_uniform(w, 8);
  wscale_ = q.scale;
  // quantize_uniform stores col-major int16; repack row-major int8 for a
  // unit-stride integer dot product.
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t k = 0; k < n_; ++k) {
      weights_[i * n_ + k] = static_cast<std::int8_t>(q.values[k * m_ + i]);
    }
  }
}

void Int8Gemm::quantize_grid(ConstMatrixView x, std::int8_t* xq,
                             float* xscales, ExecContext& ctx,
                             Phases* phases) const {
  const std::size_t b = x.cols();
  // Phase 1: dynamic activation quantization (fp32 -> int8 per column).
  // Column c's grid/scale depend only on x's column c, so the grid is
  // identical at any worker count.
  timed(phases, &Phases::quantize_seconds, [&] {
    engine::for_each_tile(ctx, b, 1,
                          [&](unsigned /*worker*/, std::size_t c0,
                              std::size_t c1) {
                            for (std::size_t c = c0; c < c1; ++c) {
                              xscales[c] = quantize_column_int8(
                                  x.col(c), n_, xq + c * n_);
                            }
                          });
  });
}

void Int8Gemm::consume_grid(const std::int8_t* xq, const float* xscales,
                            MatrixView y, std::int32_t* acc, ExecContext& ctx,
                            const EpilogueOp* ep, Phases* phases) const {
  const std::size_t b = y.cols();

  // Phase 2: integer GEMM with int32 accumulation, split over output
  // rows so b == 1 (GEMV) parallelizes too; each (row, column) dot
  // product is independent integer arithmetic.
  timed(phases, &Phases::multiply_seconds, [&] {
    engine::for_each_tile(
        ctx, m_, 64, [&](unsigned /*worker*/, std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) {
            const std::int8_t* wrow = weights_.data() + i * n_;
            for (std::size_t c = 0; c < b; ++c) {
              const std::int8_t* xc = xq + c * n_;
              std::int32_t sum = 0;
              for (std::size_t k = 0; k < n_; ++k) {
                sum += static_cast<std::int32_t>(wrow[k]) * xc[k];
              }
              acc[c * m_ + i] = sum;
            }
          }
        });
  });

  // Phase 3: dequantize back to fp32 for the float operators downstream.
  // A fused epilogue rides this pass: each value is transformed while it
  // is produced, instead of in a second sweep over y.
  timed(phases, &Phases::dequantize_seconds, [&] {
    const bool fused = ep != nullptr && !ep->empty();
    engine::for_each_tile(
        ctx, b, 1, [&](unsigned /*worker*/, std::size_t c0, std::size_t c1) {
          for (std::size_t c = c0; c < c1; ++c) {
            const float scale = wscale_ * xscales[c];
            const std::int32_t* in = acc + c * m_;
            float* out = y.col(c);
            for (std::size_t i = 0; i < m_; ++i) {
              out[i] = scale * static_cast<float>(in[i]);
            }
            // Staged: the dequantized column is L1-hot, and apply()'s
            // specialized loops beat per-element epilogue dispatch.
            if (fused) ep->apply(y, 0, m_, c, c + 1);
          }
        });
  });
}

void Int8Gemm::run_phases(ConstMatrixView x, MatrixView y, ExecContext& ctx,
                          const EpilogueOp* ep, Phases* phases) const {
  // Transient buffers are shared read-only across the phase workers, so
  // they come out of the calling thread's arena, allocated up front.
  const Int8Frame frame = stage_int8_frame(ctx.scratch(0), m_, n_, x.cols());
  quantize_grid(x, frame.xq, frame.xscales, ctx, phases);
  consume_grid(frame.xq, frame.xscales, y, frame.acc, ctx, ep, phases);
}

void Int8Gemm::run_profiled(ConstMatrixView x, MatrixView y,
                            Phases& phases) const {
  if (x.rows() != n_ || y.rows() != m_ || y.cols() != x.cols()) {
    throw std::invalid_argument("Int8Gemm: shape mismatch");
  }
  run_phases(x, y, ExecContext::thread_default(), nullptr, &phases);
}

class Int8Gemm::Plan final : public GemmPlan {
 public:
  Plan(const Int8Gemm& engine, std::size_t batch, ExecContext& ctx,
       const Epilogue& epilogue)
      : GemmPlan(engine.name(), engine.rows(), engine.cols(), batch, ctx,
                 epilogue),
        engine_(&engine) {
    // Plan-time scratch sizing: stage the run's arena frame twice so
    // the first pass grows/spills and the second consolidates the arena
    // to the frame's high-water mark — the same warm state two real
    // runs would reach, paid here instead of on the serving path.
    if (batch != 0 && engine.rows() != 0) {
      for (int pass = 0; pass < 2; ++pass) {
        (void)stage_int8_frame(ctx.scratch(0), engine.rows(), engine.cols(),
                               batch);
      }
    }
  }

 private:
  void execute(ConstMatrixView x, MatrixView y,
               const EpilogueOp& ep) const override {
    engine_->run_phases(x, y, context(), &ep, /*phases=*/nullptr);
  }

  const Int8Gemm* engine_;
};

std::unique_ptr<GemmPlan> Int8Gemm::plan(std::size_t batch, ExecContext& ctx,
                                         const Epilogue& epilogue) const {
  return std::make_unique<Plan>(*this, batch, ctx, epilogue);
}

}  // namespace biq
