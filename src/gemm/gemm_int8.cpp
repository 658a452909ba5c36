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
/// and Int8Plan's plan-time prewarm, so the prewarmed high-water mark
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
  // Column c's grid/scale depend only on x's column c, so the artifact
  // is identical at any worker count and can be built once and consumed
  // by every engine sharing this input.
  Stopwatch watch;
  engine::for_each_tile(ctx, b, 1,
                        [&](unsigned /*worker*/, std::size_t c0,
                            std::size_t c1) {
                          for (std::size_t c = c0; c < c1; ++c) {
                            xscales[c] = quantize_column_int8(
                                x.col(c), n_, xq + c * n_);
                          }
                        });
  if (phases != nullptr) phases->quantize_seconds += watch.elapsed_seconds();
}

void Int8Gemm::consume_grid(const std::int8_t* xq, const float* xscales,
                            MatrixView y, std::int32_t* acc, ExecContext& ctx,
                            const EpilogueOp* ep, Phases* phases) const {
  const std::size_t b = y.cols();

  // Phase 2: integer GEMM with int32 accumulation, split over output
  // rows so b == 1 (GEMV) parallelizes too; each (row, column) dot
  // product is independent integer arithmetic.
  {
    Stopwatch watch;
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
    if (phases != nullptr) phases->multiply_seconds += watch.elapsed_seconds();
  }

  // Phase 3: dequantize back to fp32 for the float operators downstream.
  // A fused epilogue rides this pass: each value is transformed while it
  // is produced, instead of in a second sweep over y.
  {
    Stopwatch watch;
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
    if (phases != nullptr) {
      phases->dequantize_seconds += watch.elapsed_seconds();
    }
  }
}

void Int8Gemm::run_profiled(ConstMatrixView x, MatrixView y, Phases& phases,
                            ExecContext& ctx, const EpilogueOp* ep) const {
  if (x.rows() != n_ || y.rows() != m_ || y.cols() != x.cols()) {
    throw std::invalid_argument("Int8Gemm: shape mismatch");
  }
  const std::size_t b = x.cols();

  // Transient buffers are shared read-only across the phase workers, so
  // they come out of the calling thread's arena, allocated up front.
  const Int8Frame frame = stage_int8_frame(ctx.scratch(0), m_, n_, b);
  quantize_grid(x, frame.xq, frame.xscales, ctx, &phases);
  consume_grid(frame.xq, frame.xscales, y, frame.acc, ctx, ep, &phases);
}

void Int8Gemm::run_profiled(ConstMatrixView x, MatrixView y,
                            Phases& phases) const {
  run_profiled(x, y, phases, ExecContext::thread_default());
}

namespace {

class Int8Plan final : public GemmPlan {
 public:
  Int8Plan(const Int8Gemm& engine, std::size_t batch, ExecContext& ctx,
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
    Int8Gemm::Phases phases;
    engine_->run_profiled(x, y, phases, context(), &ep);
  }

  [[nodiscard]] PrepKey do_prep_key() const noexcept override {
    // Scalar per-column quantization — no kernel plane in the identity.
    PrepKey key;
    key.kind = "int8-grid";
    key.cols = cols();
    key.batch = batch();
    return key;
  }

  [[nodiscard]] std::size_t do_prep_floats() const noexcept override {
    // [xscales: b floats][xq: n*b int8, rounded up to whole floats].
    return batch() + (cols() * batch() + sizeof(float) - 1) / sizeof(float);
  }

  void do_prepare(ConstMatrixView x, float* prep) const override {
    float* xscales = prep;
    auto* xq = reinterpret_cast<std::int8_t*>(prep + batch());
    engine_->quantize_grid(x, xq, xscales, context());
  }

  void do_consume(const float* prep, MatrixView y,
                  const EpilogueOp& ep) const override {
    const float* xscales = prep;
    const auto* xq = reinterpret_cast<const std::int8_t*>(prep + batch());
    // Only the int32 accumulator is transient now — a sub-frame of the
    // fused path's, so the plan-time prewarm covers it too.
    ScratchArena& arena = context().scratch(0);
    arena.reset();
    std::int32_t* acc = arena.alloc<std::int32_t>(rows() * batch());
    Int8Gemm::Phases phases;
    engine_->consume_grid(xq, xscales, y, acc, context(), &ep, &phases);
  }

  const Int8Gemm* engine_;
};

}  // namespace

std::unique_ptr<GemmPlan> Int8Gemm::plan(std::size_t batch, ExecContext& ctx,
                                         const Epilogue& epilogue) const {
  return std::make_unique<Int8Plan>(*this, batch, ctx, epilogue);
}

}  // namespace biq
