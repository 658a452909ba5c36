// The fused GEMM epilogue: bias add, element-wise activation and
// residual add folded into the engine's output write-back, applied per
// output tile/column-block while it is still hot in cache instead of
// re-streamed over Y by the nn layer afterwards (the NGEMM argument:
// epilogues belong inside the GEMM's output loop).
//
// The contract is element-wise and order-fixed:
//
//     y(i, c) = act(raw(i, c) + bias[i]) + residual(i, c)
//
// applied exactly once per output element after that element's
// accumulation is complete. Because the transform is per-element, an
// engine may apply it per tile, per panel, per column or over the whole
// output — the result is bitwise identical to one full pass over y
// through the SAME activate_sweep() below (what a standalone
// nn::Activation step runs), so fused and separate-sweep runs agree
// bit for bit. The transcendentals run on the per-ISA math plane
// (engine/dispatch.hpp) the plan resolved from its ExecContext, whose
// sweeps give an element the same bits wherever it falls in a sweep —
// so a row tile, a whole column and a single element all agree.
//
// The residual operand is a run-time binding: plan-time Epilogue carries
// only the *intent* (`residual = true`); the actual view arrives with
// each GemmPlan::run(x, y, residual) call. It must not overlap y —
// engines that accumulate in place would read partially-transformed
// values otherwise; GemmPlan::run enforces this.
//
// Column-granular stage (col_post): LayerNorm needs a FULL output column
// before it can normalize, so it cannot ride a row tile. A plan frozen
// with ln_gamma/ln_beta owns a per-column atomic row count; every
// apply()/apply_interleaved() call reports the rows it finished per
// column, and whichever worker retires a column's last row runs the
// normalization for that column — exactly once, with a fixed sequential
// reduction order over the column (the math plane's lockstep kernel
// normalizes the columns one call completes together), so the result
// is bitwise identical at any thread count and tile schedule. All eight
// engines get this through the shared apply paths; no engine carries
// barrier code.
#pragma once

#include <atomic>
#include <cstdint>

#include "engine/dispatch.hpp"
#include "matrix/view.hpp"

namespace biq {

/// Element-wise activation folded into an engine epilogue; nn::Act is
/// this enum, so a standalone Activation and a fold name it alike.
enum class EpilogueAct : std::uint8_t { kNone, kRelu, kGelu, kSigmoid, kTanh };

namespace epilogue {

/// dst[i] = act(src[i]) over [0, n) (src == dst allowed): the single
/// source of truth for activation arithmetic. The standalone
/// nn::Activation step and every engine epilogue run this sweep, so
/// fused and separate-pass execution on the same plane are bitwise
/// identical by construction. GELU, sigmoid and tanh run on `math`.
inline void activate_sweep(const float* src, float* dst, std::size_t n,
                           EpilogueAct act,
                           const engine::MathKernels& math) noexcept {
  switch (act) {
    case EpilogueAct::kNone:
      for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
      return;
    case EpilogueAct::kRelu:
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
      }
      return;
    case EpilogueAct::kGelu: math.gelu(src, dst, n); return;
    case EpilogueAct::kSigmoid: math.sigmoid(src, dst, n); return;
    case EpilogueAct::kTanh: math.tanh(src, dst, n); return;
  }
}

/// One element through the same sweep.
[[nodiscard]] inline float activate(float v, EpilogueAct act,
                                    const engine::MathKernels& math) noexcept {
  activate_sweep(&v, &v, 1, act, math);
  return v;
}

/// Normalize one column of length d through the math plane's lockstep
/// LayerNorm (MathKernels::layernorm): the single source of truth for
/// LayerNorm arithmetic. The standalone nn::LayerNorm step and the
/// col_post epilogue stage run the same kernel, several columns per
/// call, and a column's bits depend neither on the columns beside it
/// nor on the plane: its reduction is the fixed sequential i = 0..d-1
/// chain (mean, then variance, then the scaled write), independent of
/// who executes it. That is what makes the column barrier's "whichever
/// worker finishes last normalizes" scheduling invisible in the output.
/// src == dst (in-place) is fine.
inline void layernorm_col(const float* src, float* dst, std::size_t d,
                          const float* gamma, const float* beta, float eps,
                          const engine::MathKernels& math) noexcept {
  math.layernorm(&src, &dst, 1, d, gamma, beta, eps);
}

}  // namespace epilogue

/// Plan-time epilogue description, frozen into a GemmPlan. `bias` is
/// borrowed (length rows(); must outlive the plan; nullptr = none).
/// `residual = true` means every run of the plan will be handed a
/// rows() x batch() operand to add after the activation — the operand
/// itself is per-call state, not plan state.
struct Epilogue {
  const float* bias = nullptr;
  EpilogueAct act = EpilogueAct::kNone;
  bool residual = false;

  // Column-granular stage: when ln_gamma/ln_beta are set, every output
  // column is LayerNorm-normalized (after bias/act/residual) the moment
  // its last row tile retires. Both pointers are borrowed, length
  // ln_dim; ln_dim must equal the plan's rows() (validated at plan
  // time, since raw pointers carry no size). ln_split_dst plans write
  // the normalized column to a separate destination handed to the
  // 4-arg run() — the run's y becomes a pre-norm staging block — which
  // is what lets a residual operand alias the final output (see
  // GemmPlan::run). ln_split_dst requires residual = true.
  const float* ln_gamma = nullptr;
  const float* ln_beta = nullptr;
  float ln_eps = 1e-5f;
  std::size_t ln_dim = 0;
  bool ln_split_dst = false;

  [[nodiscard]] bool empty() const noexcept {
    return bias == nullptr && act == EpilogueAct::kNone && !residual &&
           ln_gamma == nullptr;
  }
};

/// The per-run epilogue functor engines apply: the plan's frozen
/// Epilogue bound to this run's residual operand and to the plan's math
/// plane. Engines call apply() (or apply_interleaved()) over the region
/// they just finished.
class EpilogueOp {
 public:
  EpilogueOp() = default;
  EpilogueOp(const Epilogue& ep, ConstMatrixView residual,
             const engine::MathKernels& math) noexcept
      : bias_(ep.bias), residual_(residual), math_(&math), act_(ep.act),
        has_residual_(ep.residual) {}

  /// Binding for a plan with a column-granular LN stage: `col_counts`
  /// points at the plan-owned per-column barrier (one atomic per output
  /// column, all zero between runs), `total_rows` is the full column
  /// height, and `ln_dst` is where normalized columns land (empty view
  /// = normalize y in place).
  EpilogueOp(const Epilogue& ep, ConstMatrixView residual,
             const engine::MathKernels& math,
             std::atomic<std::uint32_t>* col_counts, std::size_t total_rows,
             MatrixView ln_dst) noexcept
      : bias_(ep.bias), residual_(residual), math_(&math),
        ln_gamma_(ep.ln_gamma), ln_beta_(ep.ln_beta), col_counts_(col_counts),
        ln_dst_(ln_dst), total_rows_(total_rows), ln_eps_(ep.ln_eps),
        act_(ep.act), has_residual_(ep.residual) {}

  [[nodiscard]] bool empty() const noexcept {
    return bias_ == nullptr && act_ == EpilogueAct::kNone && !has_residual_ &&
           ln_gamma_ == nullptr;
  }

  /// In-place transform of y's rows [i0, i1) x cols [c0, c1) — the form
  /// engines that accumulate straight into y use once a region's
  /// accumulation is complete. Each column is staged: bias add, then the
  /// activation sweep, then the residual add, each its own loop over the
  /// (cache-hot) range, so the adds vectorize and the activation runs
  /// as one math-plane sweep. Staging preserves the per-element order
  /// `act(v + bias) + residual` exactly.
  void apply(MatrixView y, std::size_t i0, std::size_t i1, std::size_t c0,
             std::size_t c1) const noexcept {
    for (std::size_t c = c0; c < c1; ++c) {
      float* yc = y.col(c);
      const float* rc = has_residual_ ? residual_.col(c) : nullptr;
      if (act_ == EpilogueAct::kNone) {
        if (bias_ != nullptr && rc != nullptr) {
          for (std::size_t i = i0; i < i1; ++i) {
            yc[i] = (yc[i] + bias_[i]) + rc[i];
          }
        } else if (bias_ != nullptr) {
          for (std::size_t i = i0; i < i1; ++i) yc[i] += bias_[i];
        } else if (rc != nullptr) {
          for (std::size_t i = i0; i < i1; ++i) yc[i] += rc[i];
        }
        continue;
      }
      if (bias_ != nullptr) {
        for (std::size_t i = i0; i < i1; ++i) yc[i] += bias_[i];
      }
      epilogue::activate_sweep(yc + i0, yc + i0, i1 - i0, act_, *math_);
      if (rc != nullptr) {
        for (std::size_t i = i0; i < i1; ++i) yc[i] += rc[i];
      }
    }
    notify_cols(y, i0, i1, c0, c1);
  }

  /// De-interleaving write-back with the epilogue merged into the copy:
  /// `tile` holds a finished accumulator block in lane-interleaved order
  /// (tile[i * lanes + lane] is raw y(i, c0 + lane)); rows [i0, i1) of
  /// columns [c0, c1) are written, c1 - c0 <= lanes, so the zero-padded
  /// lanes of a narrow batch tile are never stored, and exactly those
  /// rows are credited to the column barrier. The bias add — and,
  /// when there is no activation, the residual add too — rides the
  /// de-interleave store itself, so for those terms the epilogue costs
  /// no pass over y at all; activations follow as the same staged sweeps
  /// apply() runs. A tile of the math plane's width goes through its
  /// transposing write_tile; a one-lane tile (batch 1) is a plain
  /// column. Same per-element arithmetic order either way, so the
  /// result is bitwise identical to a plain copy followed by apply().
  void apply_interleaved(MatrixView y, const float* tile, std::size_t i0,
                         std::size_t i1, std::size_t lanes, std::size_t c0,
                         std::size_t c1) const noexcept {
    const bool res_in_copy = has_residual_ && act_ == EpilogueAct::kNone;
    if (lanes == math_->lanes) {
      math_->write_tile(tile, i0, i1, y, c0, c1 - c0, bias_,
                        res_in_copy ? residual_ : ConstMatrixView());
    } else {
      for (std::size_t lane = 0; lane < c1 - c0; ++lane) {
        float* yc = y.col(c0 + lane);
        const float* src = tile + lane;
        const float* rc = res_in_copy ? residual_.col(c0 + lane) : nullptr;
        for (std::size_t i = i0; i < i1; ++i) {
          float v = src[i * lanes];
          if (bias_ != nullptr) v += bias_[i];
          if (rc != nullptr) v += rc[i];
          yc[i] = v;
        }
      }
    }
    if (act_ != EpilogueAct::kNone) {
      for (std::size_t c = c0; c < c1; ++c) {
        float* yc = y.col(c);
        epilogue::activate_sweep(yc + i0, yc + i0, i1 - i0, act_, *math_);
        if (has_residual_) {
          const float* rc = residual_.col(c);
          for (std::size_t i = i0; i < i1; ++i) yc[i] += rc[i];
        }
      }
    }
    notify_cols(y, i0, i1, c0, c1);
  }

 private:
  /// Column-completion barrier tick: credit [i0, i1) rows to each of
  /// columns [c0, c1); the call that brings a column to total_rows_
  /// resets its counter and runs the LN stage over the now-complete
  /// column. The columns one call completes (a batch tile's, which
  /// finish together) are normalized together, up to the math plane's
  /// lanes per kernel call. The acq_rel RMW chain on each column's
  /// atomic means every writer of that column happens-before the
  /// completing worker's normalize (TSan-clean), and the relaxed reset
  /// is safe across runs because plan->run joins its worker pool before
  /// returning. No-op unless the plan carries an LN stage.
  void notify_cols(MatrixView y, std::size_t i0, std::size_t i1,
                   std::size_t c0, std::size_t c1) const noexcept {
    if (ln_gamma_ == nullptr) return;
    const auto added = static_cast<std::uint32_t>(i1 - i0);
    const auto total = static_cast<std::uint32_t>(total_rows_);
    const float* src[engine::kMaxMathLanes];
    float* dst[engine::kMaxMathLanes];
    std::size_t ready = 0;
    for (std::size_t c = c0; c < c1; ++c) {
      std::atomic<std::uint32_t>& count = col_counts_[c];
      if (count.fetch_add(added, std::memory_order_acq_rel) + added != total) {
        continue;
      }
      count.store(0, std::memory_order_relaxed);
      src[ready] = y.col(c);
      dst[ready] = ln_dst_.data() != nullptr ? ln_dst_.col(c) : y.col(c);
      if (++ready == math_->lanes) {
        math_->layernorm(src, dst, ready, total_rows_, ln_gamma_, ln_beta_,
                         ln_eps_);
        ready = 0;
      }
    }
    if (ready != 0) {
      math_->layernorm(src, dst, ready, total_rows_, ln_gamma_, ln_beta_,
                       ln_eps_);
    }
  }

  const float* bias_ = nullptr;
  ConstMatrixView residual_;
  const engine::MathKernels* math_ = nullptr;  // the plan's math plane
  const float* ln_gamma_ = nullptr;
  const float* ln_beta_ = nullptr;
  std::atomic<std::uint32_t>* col_counts_ = nullptr;  // plan-owned barrier
  MatrixView ln_dst_;  // empty = normalize y in place
  std::size_t total_rows_ = 0;
  float ln_eps_ = 1e-5f;
  EpilogueAct act_ = EpilogueAct::kNone;
  bool has_residual_ = false;
};

}  // namespace biq
