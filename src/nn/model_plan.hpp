// Whole-model planned execution — the prepare/execute split of
// GemmEngine::plan (Sec. II-A: everything derivable before activations
// arrive is computed once) lifted from one GEMM to a whole network.
//
// ModelPlan compiles ANY PlannableModule tree (src/nn/module.hpp) —
// a TransformerEncoder, an Lstm/BiLstm, a bare MultiHeadAttention, or
// an arbitrary Sequential hybrid of them — for one batch width under
// one ExecContext, through one generic walker:
//   * every projection's GemmPlan is frozen up front (LinearLayer::plan:
//     the engine's plan with the bias, and any folded activation,
//     residual or LayerNorm, in its epilogue), so the warm path never
//     plans per call,
//   * every intermediate activation tensor of the module tree goes
//     through ModelPlanner, a liveness-based packer that assigns offsets
//     in ONE arena block, reusing storage across tensors whose lifetimes
//     don't overlap (the 4n x n FFN intermediate and every per-layer
//     temporary collapse to a single per-layer working set),
//   * run(x, y) executes the frozen program with ZERO heap allocations
//     once warm — the serving hot path for fixed-shape traffic.
//
// The arena block itself comes from ExecContext::alloc_model_block(),
// sized at plan time and returned by the plan's destructor — block
// lifetime equals plan lifetime, so plans coexist freely and
// batch-varying replan traffic never grows the context unboundedly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/exec_context.hpp"
#include "matrix/view.hpp"
#include "nn/lstm.hpp"
#include "nn/module.hpp"
#include "nn/transformer.hpp"

namespace biq::nn {

/// One frozen (module, batch, ExecContext) whole-network recipe. Compile
/// once for the bound batch; run() any number of times — warm runs
/// perform zero heap allocations. The plan borrows the module and the
/// context (both must outlive it) and owns its projections' GemmPlans
/// plus the activation arena layout; one caller may run it at a time
/// (it owns the context's scratch and its arena slots while running).
/// Re-compile when the batch width or the context change.
class ModelPlan {
 public:
  /// Compiles the module tree via the generic walker. `batch` is the
  /// token/frame count the plan is bound to: x is module.in_rows() x
  /// batch, y is module.out_shape(...).rows x batch. There is one
  /// compiled program per (module, batch): bias, activation, residual
  /// and LayerNorm seams fold into producer GEMM epilogues wherever the
  /// producer supports them. Every projection runs its own fused GEMM,
  /// which builds each batch tile's LUTs right before querying them.
  ModelPlan(const PlannableModule& module, std::size_t batch,
            ExecContext& ctx);

  ~ModelPlan();
  ModelPlan(ModelPlan&&) noexcept;
  ModelPlan& operator=(ModelPlan&&) noexcept;

  /// The hot path: the whole model's forward through the frozen recipe.
  /// x must be input_rows() x batch(), y output_rows() x batch()
  /// (overwritten); both may be strided windows of larger buffers, and
  /// must not overlap. Throws std::invalid_argument naming the
  /// offending dims on any mismatch.
  void run(ConstMatrixView x, MatrixView y) const;

  /// Batch width (tokens / frames) the plan was compiled for.
  [[nodiscard]] std::size_t batch() const noexcept;
  [[nodiscard]] std::size_t input_rows() const noexcept;
  [[nodiscard]] std::size_t output_rows() const noexcept;
  /// Packed activation-arena footprint (the planner's high-water mark).
  [[nodiscard]] std::size_t arena_floats() const noexcept;
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return arena_floats() * sizeof(float);
  }
  /// Sum of all planned tensors — arena_floats() <= this; the gap is
  /// the liveness packing's saving.
  [[nodiscard]] std::size_t unpacked_floats() const noexcept;
  [[nodiscard]] ExecContext& context() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Batch-adaptive wrapper: serves run() from compiled ModelPlans held
/// per batch width, so traffic that alternates between a few widths (a
/// server answering bucket-padded requests) replans NOTHING once every
/// width has been seen. The cache is LRU-bounded: at most `capacity`
/// plans are live at once — each holds an activation arena block on the
/// context, so an unbounded cache would grow the context's footprint
/// with every distinct batch width ever requested. The default capacity
/// keeps all power-of-two buckets up to 128 resident: the widths a
/// bucket-padding server asks for. A model or context change clears the
/// cache (plans are only valid for the pair they were compiled for).
/// The model must outlive the cache. Model may be any PlannableModule
/// type. Like plan compilation itself this is control-path state: one
/// caller at a time.
template <typename Model>
class ModelPlanCache {
 public:
  /// Plans for batches 1, 2, 4, ..., 128 all stay resident.
  static constexpr std::size_t kDefaultCapacity = 8;

  explicit ModelPlanCache(std::size_t capacity = kDefaultCapacity) noexcept
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void run(const Model& model, ConstMatrixView x, MatrixView y,
           ExecContext& ctx) {
    plan_for(model, x.cols(), ctx).run(x, y);
  }

  /// The plan for `batch`, compiled on first use and cached. When the
  /// cache is full the least-recently-used plan is evicted (its arena
  /// block returns to the context).
  [[nodiscard]] const ModelPlan& plan_for(const Model& model,
                                          std::size_t batch,
                                          ExecContext& ctx) {
    if (model_ != &model || ctx_ != &ctx) {
      entries_.clear();
      mru_ = nullptr;
      model_ = &model;
      ctx_ = &ctx;
    }
    for (Entry& e : entries_) {
      if (e.plan->batch() == batch) {
        e.stamp = ++clock_;
        mru_ = e.plan.get();
        return *mru_;
      }
    }
    if (entries_.size() >= capacity_) {
      std::size_t victim = 0;
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].stamp < entries_[victim].stamp) victim = i;
      }
      entries_[victim] = std::move(entries_.back());
      entries_.pop_back();
    }
    entries_.push_back(
        Entry{std::make_unique<ModelPlan>(model, batch, ctx), ++clock_});
    mru_ = entries_.back().plan.get();
    return *mru_;
  }

  /// The most-recently-used plan (nullptr before the first run).
  [[nodiscard]] const ModelPlan* plan() const noexcept { return mru_; }

  /// Live cached plans (<= capacity()).
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    std::unique_ptr<ModelPlan> plan;
    std::uint64_t stamp;  // last-use tick; smallest = LRU victim
  };

  std::size_t capacity_;
  std::vector<Entry> entries_;
  const Model* model_ = nullptr;
  const ExecContext* ctx_ = nullptr;
  const ModelPlan* mru_ = nullptr;
  std::uint64_t clock_ = 0;
};

}  // namespace biq::nn
