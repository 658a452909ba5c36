// The nn module IR: one interface every layer implements so arbitrary
// stacked/hybrid models compile through the liveness planner (the
// paper's Sec. II-A freeze — everything derivable before activations
// arrive is computed once — lifted to a uniform compile-time layer
// representation instead of per-model special cases).
//
// A PlannableModule is a shape-checked map from an in_rows x batch
// activation to an out_rows x batch activation. It exposes
//   * out_shape(in)      — static shape propagation (throws on mismatch),
//   * plan_into(mpc, fold) — the compile step: freeze every GemmPlan for
//     the bound batch and acquire/release activation Slots for internal
//     temporaries against the shared ModelPlanner; returns the frozen
//     ModuleStep. `fold` is an engine Epilogue (activation, residual,
//     LayerNorm) the module absorbs into its final GEMM's output loop.
// The compiled ModelPlan (nn/model_plan.hpp) is the only way a module
// executes; forward(x, y) is a one-shot convenience over it.
//
// Slot discipline (what makes composition liveness-correct): plan_into
// acquires AND releases every internal slot before returning, while the
// CALLER holds the module's input and output slots across the call.
// Internal temporaries therefore never alias the module's own input or
// output, but may reuse storage of any earlier-released slot — released
// offsets stay valid in the frozen step, release only opens the storage
// to later acquires, and program order IS execution order.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "engine/epilogue.hpp"
#include "engine/exec_context.hpp"
#include "matrix/view.hpp"

namespace biq::nn {

/// Activation shape: feature rows x batch columns (tokens / frames).
struct Shape {
  std::size_t rows = 0;
  std::size_t cols = 0;
};

/// Liveness-based activation packer. The compile walk declares each
/// intermediate tensor with acquire() when it comes alive and release()
/// when its last reader is done (program order IS the liveness
/// interval); placement is best-fit over the free intervals, so tensors
/// with non-overlapping lifetimes share storage and peak_floats() is the
/// high-water mark of the packed layout, not the sum of tensor sizes.
/// Offsets are 64-byte aligned (16 floats) so every slot is as aligned
/// as the arena base.
class ModelPlanner {
 public:
  /// A planned tensor: {offset into the arena block, rows x cols}. The
  /// view is resolved against the block base at run time — slots are
  /// plain value types frozen into the plan.
  class Slot {
   public:
    Slot() = default;

    [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    /// Floats of arena the slot occupies (size rounded up to alignment).
    [[nodiscard]] std::size_t extent() const noexcept { return extent_; }

    [[nodiscard]] MatrixView view(float* base) const noexcept {
      return {base + offset_, rows_, cols_, rows_};
    }

   private:
    friend class ModelPlanner;
    std::size_t offset_ = 0;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t extent_ = 0;
  };

  /// Declares a rows x cols fp32 tensor live from now until release().
  /// Throws std::length_error naming the shape when the slot, or the
  /// arena grown by it, has a byte size a size_t cannot hold.
  [[nodiscard]] Slot acquire(std::size_t rows, std::size_t cols);

  /// Ends the tensor's lifetime: its interval returns to the free list
  /// (coalesced with neighbors) and may back later acquires.
  void release(const Slot& slot);

  /// High-water mark of the packed layout, in floats — the arena block
  /// size the compiled plan allocates.
  [[nodiscard]] std::size_t peak_floats() const noexcept { return end_; }

  /// Sum of every acquire()'s extent — what the layout would cost
  /// without lifetime reuse. peak_floats() <= total; the gap is what the
  /// liveness packing saved.
  [[nodiscard]] std::size_t total_acquired_floats() const noexcept {
    return total_;
  }

 private:
  struct Block {
    std::size_t offset;
    std::size_t size;
  };

  std::vector<Block> free_;  // sorted by offset, coalesced
  std::size_t end_ = 0;      // high-water mark in floats
  std::size_t total_ = 0;
};

using ModelSlot = ModelPlanner::Slot;

/// The compile-time context handed to every plan_into: the shared
/// planner, the ExecContext the frozen GemmPlans bind to, and the batch
/// width (tokens / frames) the whole model is compiled for. The walk
/// always folds epilogues (bias, activation, residual, LayerNorm) into
/// producer plans where the producer supports it.
class ModulePlanContext {
 public:
  ModulePlanContext(ModelPlanner& planner, ExecContext& ctx,
                    std::size_t batch) noexcept
      : planner_(&planner), ctx_(&ctx), batch_(batch) {}

  [[nodiscard]] ModelPlanner& planner() noexcept { return *planner_; }
  [[nodiscard]] ExecContext& exec() const noexcept { return *ctx_; }
  [[nodiscard]] std::size_t batch() const noexcept { return batch_; }

  [[nodiscard]] ModelSlot acquire(std::size_t rows, std::size_t cols) {
    return planner_->acquire(rows, cols);
  }
  void release(const ModelSlot& slot) { planner_->release(slot); }

 private:
  ModelPlanner* planner_;
  ExecContext* ctx_;
  std::size_t batch_;
};

/// One module's frozen forward: held GemmPlans plus arena slots, replayed
/// with zero planning and zero heap allocations once the engines' scratch
/// is warm. `base` is the compiled plan's arena block (slot views resolve
/// against it on the stack); x / y are the module's input / output
/// activations — arena slots or caller buffers, the step cannot tell.
class ModuleStep {
 public:
  virtual ~ModuleStep() = default;
  ModuleStep() = default;
  ModuleStep(const ModuleStep&) = delete;
  ModuleStep& operator=(const ModuleStep&) = delete;

  /// Shapes are validated by the compiling walker; replays the program.
  virtual void run_step(float* base, ConstMatrixView x,
                        MatrixView y) const = 0;
};

/// The module IR every nn layer implements (see file comment for the
/// slot discipline that makes arbitrary composition liveness-correct).
class PlannableModule {
 public:
  virtual ~PlannableModule() = default;

  /// Fixed input feature count (activation rows the module consumes).
  [[nodiscard]] virtual std::size_t in_rows() const noexcept = 0;

  /// Shape propagation: output shape for an `in`-shaped input. The batch
  /// (cols) passes through every module unchanged. Throws
  /// std::invalid_argument naming the module on a row mismatch.
  [[nodiscard]] virtual Shape out_shape(Shape in) const = 0;

  /// Compile: freeze the module's GemmPlans at mpc.batch() and lay out
  /// its internal temporaries on mpc's planner (acquired and released
  /// before returning — the caller holds the input/output slots), with
  /// `fold` absorbed into the step's final GEMM epilogue: the step
  /// computes LN(act(module(x) + bias) [+ x]), the residual operand
  /// being the step's own input. Throws std::logic_error unless
  /// supports_fusion(fold).
  [[nodiscard]] std::unique_ptr<ModuleStep> plan_into(
      ModulePlanContext& mpc, const Epilogue& fold = {}) const;

  /// True when every output column depends ONLY on the same-index input
  /// column — no cross-column mixing anywhere in the module. For such
  /// modules the batch (column) axis carries independent samples, so
  /// concatenating requests along it, padding to a larger width, and
  /// slicing columns back out is EXACT (the serving layer's dynamic
  /// batching relies on this; src/serve/ rejects modules that return
  /// false). Column-wise projections (LinearLayer), element-wise maps
  /// (Activation) and per-column normalization (LayerNorm) qualify;
  /// attention (tokens attend across columns) and recurrence (columns
  /// are time steps) do not. Default is the conservative false.
  [[nodiscard]] virtual bool columns_independent() const noexcept {
    return false;
  }

  /// Whether plan_into can absorb `fold` into the module's own output
  /// loop. Default: only the empty fold. Modules whose output is
  /// produced by a GemmPlan override this (LinearLayer, FeedForward,
  /// MultiHeadAttention); fold.residual additionally requires a
  /// shape-preserving module and a folded LayerNorm an ln_dim equal to
  /// the output rows. Callers probe BEFORE acquiring the output slot, so
  /// a fold decision never disturbs the slot discipline.
  [[nodiscard]] virtual bool supports_fusion(
      const Epilogue& fold) const noexcept {
    return fold.empty();
  }

  /// One-shot forward: compiles ModelPlan(*this, x.cols(), ctx) and runs
  /// it. x is in_rows() x b, y is out_shape's rows x b (overwritten);
  /// they must be distinct buffers. Nothing is cached — callers on a hot
  /// path hold a ModelPlan or a ModelPlanCache instead. Concurrent calls
  /// are safe on distinct contexts (the default is per thread).
  void forward(ConstMatrixView x, MatrixView y,
               ExecContext& ctx = ExecContext::thread_default()) const;

 protected:
  /// Shared out_shape() guard: throws std::invalid_argument naming `who`
  /// unless in.rows == in_rows().
  void check_in_rows(Shape in, const char* who) const;

  /// plan_into's body, only ever handed a fold supports_fusion accepts.
  [[nodiscard]] virtual std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const = 0;
};

/// Plans a module chain m[0] .. m[count-1] (output of each feeds the
/// next) through one walker: inter-module activations are planner slots
/// live exactly from their producer to their consumer, the first input
/// and last output are the run_step caller's x / y. This is THE generic
/// compile path — Sequential, TransformerEncoder and ModelPlan all walk
/// through it. An empty chain compiles to the identity copy (a 0-layer
/// encoder is a copy); a row mismatch at any seam throws.
///
/// Peephole: a producer followed by an Activation it supports_fusion()
/// for is folded into ONE fused step — the activation runs inside the
/// producer's GEMM epilogue, the Activation's step and the intermediate
/// slot between them are never materialized. The same fold extends to a
/// trailing LayerNorm (after any Activation fold): LinearLayer→LN and
/// LinearLayer→Act→LN compile to one step whose GEMM normalizes each output
/// column as it completes.
[[nodiscard]] std::unique_ptr<ModuleStep> plan_chain(
    const PlannableModule* const* modules, std::size_t count,
    ModulePlanContext& mpc);

/// Owning module composition: Sequential{encoder, bilstm, linear head}
/// is itself a PlannableModule, so hybrids nest and compile through
/// plan_chain like any single layer.
class Sequential final : public PlannableModule {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<std::unique_ptr<PlannableModule>> modules);

  /// Appends a stage; throws std::invalid_argument if its in_rows()
  /// does not match the current tail's output rows. Returns *this so
  /// pipelines chain: seq.add(a).add(b).add(c).
  Sequential& add(std::unique_ptr<PlannableModule> module);

  [[nodiscard]] std::size_t size() const noexcept { return modules_.size(); }
  [[nodiscard]] const PlannableModule& operator[](std::size_t i) const {
    return *modules_[i];
  }

  [[nodiscard]] std::size_t in_rows() const noexcept override;
  [[nodiscard]] Shape out_shape(Shape in) const override;
  /// A pipeline preserves column independence iff every stage does.
  [[nodiscard]] bool columns_independent() const noexcept override {
    for (const auto& m : modules_) {
      if (!m->columns_independent()) return false;
    }
    return true;
  }

 private:
  [[nodiscard]] std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const override;

  std::vector<std::unique_ptr<PlannableModule>> modules_;
  std::size_t tail_rows_ = 0;  // output rows of the last stage
};

/// Residual wrapper: y = inner(x) + x. The inner module must be shape
/// preserving (out rows == in rows; checked at construction). When the
/// inner module supports it, the add runs inside the inner module's
/// final GEMM epilogue — no extra slot, no separate add pass; otherwise
/// the inner output lands in a temporary and one add pass follows.
class Residual final : public PlannableModule {
 public:
  explicit Residual(std::unique_ptr<PlannableModule> inner);

  [[nodiscard]] const PlannableModule& inner() const noexcept {
    return *inner_;
  }

  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return inner_->in_rows();
  }
  /// y = inner(x) + x mixes nothing across columns beyond what the
  /// inner module itself does.
  [[nodiscard]] bool columns_independent() const noexcept override {
    return inner_->columns_independent();
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;
  /// A Residual can absorb a trailing fold (an LN, say) by delegating
  /// to its inner module with fold.residual set — so the plan_chain
  /// peephole folds Residual(m)→LN into m's own epilogue. Folds that
  /// already carry residual are rejected (the wrapper's own add claims
  /// that seat); the empty fold always plans, as one add pass after
  /// the inner step when the inner module cannot take the add.
  [[nodiscard]] bool supports_fusion(
      const Epilogue& fold) const noexcept override;

 private:
  [[nodiscard]] std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const override;

  std::unique_ptr<PlannableModule> inner_;
};

}  // namespace biq::nn
