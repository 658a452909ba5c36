#include "nn/module.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/activations.hpp"
#include "nn/layernorm.hpp"
#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"
#include "util/aligned_buffer.hpp"

namespace biq::nn {

// ------------------------------------------------------------ ModelPlanner

namespace {

constexpr std::size_t kSlotAlignFloats = kDefaultAlignment / sizeof(float);

// The largest arena, in floats, whose byte size still fits a size_t.
// A multiple of the slot alignment, so rounding a size at or below it
// up never passes it.
constexpr std::size_t kMaxArenaFloats =
    std::numeric_limits<std::size_t>::max() / sizeof(float) /
    kSlotAlignFloats * kSlotAlignFloats;

constexpr std::size_t round_up_floats(std::size_t v) noexcept {
  return (v + kSlotAlignFloats - 1) / kSlotAlignFloats * kSlotAlignFloats;
}

[[noreturn]] void throw_too_large(std::size_t rows, std::size_t cols) {
  throw std::length_error("ModelPlanner::acquire: a " + std::to_string(rows) +
                          " x " + std::to_string(cols) +
                          " slot does not fit a size_t arena");
}

}  // namespace

ModelPlanner::Slot ModelPlanner::acquire(std::size_t rows, std::size_t cols) {
  if (cols != 0 && rows > kMaxArenaFloats / cols) throw_too_large(rows, cols);
  Slot slot;
  slot.rows_ = rows;
  slot.cols_ = cols;
  slot.extent_ = round_up_floats(rows * cols);
  if (slot.extent_ == 0) return slot;
  // The high-water mark never passes the unpacked total, so bounding
  // the total also bounds every offset + extent below.
  if (slot.extent_ > kMaxArenaFloats - total_) throw_too_large(rows, cols);
  total_ += slot.extent_;

  // Best fit over the free intervals: the smallest hole that holds the
  // tensor, so large future tensors keep their chances.
  std::size_t best = free_.size();
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i].size >= slot.extent_ &&
        (best == free_.size() || free_[i].size < free_[best].size)) {
      best = i;
    }
  }
  if (best != free_.size()) {
    slot.offset_ = free_[best].offset;
    free_[best].offset += slot.extent_;
    free_[best].size -= slot.extent_;
    if (free_[best].size == 0) {
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(best));
    }
    return slot;
  }

  // No hole fits: grow the high-water mark. A trailing free interval
  // that touches the end is extended through rather than left as a hole.
  if (!free_.empty() && free_.back().offset + free_.back().size == end_) {
    slot.offset_ = free_.back().offset;
    free_.pop_back();
  } else {
    slot.offset_ = end_;
  }
  end_ = slot.offset_ + slot.extent_;
  return slot;
}

void ModelPlanner::release(const Slot& slot) {
  if (slot.extent_ == 0) return;
  const Block block{slot.offset_, slot.extent_};
  auto it = std::lower_bound(
      free_.begin(), free_.end(), block.offset,
      [](const Block& b, std::size_t offset) { return b.offset < offset; });
  it = free_.insert(it, block);
  if (it + 1 != free_.end() && it->offset + it->size == (it + 1)->offset) {
    it->size += (it + 1)->size;
    free_.erase(it + 1);
  }
  if (it != free_.begin()) {
    const auto prev = it - 1;
    if (prev->offset + prev->size == it->offset) {
      prev->size += it->size;
      free_.erase(it);
    }
  }
}

// --------------------------------------------------------- PlannableModule

void PlannableModule::check_in_rows(Shape in, const char* who) const {
  if (in.rows != in_rows()) {
    throw std::invalid_argument(std::string(who) + ": input has " +
                                std::to_string(in.rows) + " rows, expected " +
                                std::to_string(in_rows()));
  }
}

void PlannableModule::forward(ConstMatrixView x, MatrixView y,
                              ExecContext& ctx) const {
  ModelPlan(*this, x.cols(), ctx).run(x, y);
}

std::unique_ptr<ModuleStep> PlannableModule::plan_into(
    ModulePlanContext& mpc, const Epilogue& fold) const {
  if (!supports_fusion(fold)) {
    throw std::logic_error(
        "plan_into: module does not support the requested fold (probe "
        "supports_fusion first)");
  }
  return do_plan_into(mpc, fold);
}

// -------------------------------------------------------------- plan_chain

namespace {

/// An empty chain degenerates to the identity map: y = x.
class IdentityStep final : public ModuleStep {
 public:
  void run_step(float* /*base*/, ConstMatrixView x,
                MatrixView y) const override {
    copy_into(x, y);
  }
};

/// The frozen chain: each stage's step plus the slot its output lands in
/// (the last stage writes the caller's y directly).
class ChainStep final : public ModuleStep {
 public:
  struct Stage {
    std::unique_ptr<ModuleStep> step;
    ModelSlot out;
    bool to_slot = false;
  };

  explicit ChainStep(std::vector<Stage> stages) : stages_(std::move(stages)) {}

  void run_step(float* base, ConstMatrixView x, MatrixView y) const override {
    ConstMatrixView cur = x;
    for (const Stage& stage : stages_) {
      if (stage.to_slot) {
        const MatrixView out = stage.out.view(base);
        stage.step->run_step(base, cur, out);
        cur = out;
      } else {
        stage.step->run_step(base, cur, y);
      }
    }
  }

 private:
  std::vector<Stage> stages_;
};

}  // namespace

std::unique_ptr<ModuleStep> plan_chain(const PlannableModule* const* modules,
                                       std::size_t count,
                                       ModulePlanContext& mpc) {
  // Zero modules = the identity map (a 0-layer encoder is a copy). Note
  // Sequential still rejects compiling an empty pipeline in out_shape(),
  // where the output rows are unknowable.
  if (count == 0) return std::make_unique<IdentityStep>();
  std::vector<ChainStep::Stage> stages;
  stages.reserve(count);
  Shape shape{modules[0]->in_rows(), mpc.batch()};
  ModelSlot feed;  // the chain slot feeding the current module (i > 0)
  bool have_feed = false;
  for (std::size_t i = 0; i < count; ++i) {
    const PlannableModule& module = *modules[i];
    shape = module.out_shape(shape);  // validates the seam's rows
    // Peephole: fold a trailing Activation into the producer's GEMM
    // epilogue. The fold is decided BEFORE the output slot is acquired
    // (Activation is shape-preserving, so the slot's shape is the
    // same either way); the fused pair consumes two chain positions
    // and the intermediate between them never exists.
    std::size_t consumed = 1;
    Epilogue fold;
    if (i + 1 < count) {
      const auto* act = dynamic_cast<const Activation*>(modules[i + 1]);
      if (act != nullptr) {
        const Epilogue probe{.act = act->activation()};
        if (module.supports_fusion(probe)) {
          shape = modules[i + 1]->out_shape(shape);  // validates the seam
          fold = probe;
          consumed = 2;
        }
      }
    }
    // Second peephole: a trailing LayerNorm (directly after the
    // producer, or after the Activation just folded) rides the
    // producer's column-granular epilogue — LinearLayer→LN and
    // LinearLayer→Act→LN become one step, and the slot between them never
    // exists. LN is shape-preserving, so the output slot's shape is
    // the same either way.
    if (i + consumed < count) {
      const auto* ln = dynamic_cast<const LayerNorm*>(modules[i + consumed]);
      if (ln != nullptr) {
        const Epilogue probe = ln->fold(fold);
        if (module.supports_fusion(probe)) {
          shape = modules[i + consumed]->out_shape(shape);  // validates
          fold = probe;
          ++consumed;
        }
      }
    }
    ChainStep::Stage stage;
    stage.to_slot = i + consumed < count;
    // Liveness: the output slot opens before the module's internals are
    // laid out and the input slot closes after — internals never alias
    // either side of the module they serve.
    if (stage.to_slot) stage.out = mpc.acquire(shape.rows, shape.cols);
    stage.step = module.plan_into(mpc, fold);
    if (have_feed) mpc.release(feed);
    feed = stage.out;
    have_feed = stage.to_slot;
    stages.push_back(std::move(stage));
    i += consumed - 1;
  }
  return std::make_unique<ChainStep>(std::move(stages));
}

// -------------------------------------------------------------- Sequential

Sequential::Sequential(std::vector<std::unique_ptr<PlannableModule>> modules) {
  for (auto& module : modules) add(std::move(module));
}

Sequential& Sequential::add(std::unique_ptr<PlannableModule> module) {
  if (module == nullptr) {
    throw std::invalid_argument("Sequential::add: null module");
  }
  if (!modules_.empty() && module->in_rows() != tail_rows_) {
    throw std::invalid_argument(
        "Sequential::add: stage consumes " + std::to_string(module->in_rows()) +
        " rows but the current tail produces " + std::to_string(tail_rows_));
  }
  tail_rows_ = module->out_shape({module->in_rows(), 1}).rows;
  modules_.push_back(std::move(module));
  return *this;
}

std::size_t Sequential::in_rows() const noexcept {
  return modules_.empty() ? 0 : modules_.front()->in_rows();
}

Shape Sequential::out_shape(Shape in) const {
  if (modules_.empty()) {
    throw std::invalid_argument("Sequential::out_shape: empty pipeline");
  }
  check_in_rows(in, "Sequential");
  return {tail_rows_, in.cols};
}

std::unique_ptr<ModuleStep> Sequential::do_plan_into(
    ModulePlanContext& mpc, const Epilogue& /*fold*/) const {
  std::vector<const PlannableModule*> chain;
  chain.reserve(modules_.size());
  for (const auto& module : modules_) chain.push_back(module.get());
  return plan_chain(chain.data(), chain.size(), mpc);
}

// ---------------------------------------------------------------- Residual

namespace {

/// Fallback residual step (inner module can't fuse the add): inner
/// output lands in a planner slot, then one add pass — same operand
/// order as the fused epilogue (inner(x) + x).
class ResidualStep final : public ModuleStep {
 public:
  ResidualStep(const PlannableModule& inner, ModulePlanContext& mpc)
      : stmp_(mpc.acquire(inner.in_rows(), mpc.batch())) {
    step_ = inner.plan_into(mpc);
    mpc.release(stmp_);
  }

  void run_step(float* base, ConstMatrixView x, MatrixView y) const override {
    const MatrixView tmp = stmp_.view(base);
    step_->run_step(base, x, tmp);
    add_into(tmp, x, y);
  }

 private:
  ModelSlot stmp_;
  std::unique_ptr<ModuleStep> step_;
};

}  // namespace

Residual::Residual(std::unique_ptr<PlannableModule> inner)
    : inner_(std::move(inner)) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("Residual: null inner module");
  }
  const std::size_t rows = inner_->in_rows();
  if (inner_->out_shape({rows, 1}).rows != rows) {
    throw std::invalid_argument(
        "Residual: inner module must be shape-preserving");
  }
}

Shape Residual::out_shape(Shape in) const {
  check_in_rows(in, "Residual");
  return inner_->out_shape(in);
}

bool Residual::supports_fusion(const Epilogue& fold) const noexcept {
  if (fold.empty()) return true;
  if (fold.residual) return false;  // the wrapper's add sits there
  Epilogue inner = fold;
  inner.residual = true;
  return inner_->supports_fusion(inner);
}

std::unique_ptr<ModuleStep> Residual::do_plan_into(
    ModulePlanContext& mpc, const Epilogue& fold) const {
  Epilogue inner = fold;
  inner.residual = true;
  if (inner_->supports_fusion(inner)) return inner_->plan_into(mpc, inner);
  return std::make_unique<ResidualStep>(*inner_, mpc);  // fold is empty
}

}  // namespace biq::nn
