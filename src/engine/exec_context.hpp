// ExecContext — call-time execution state for every GemmEngine.
//
// Engines are immutable after construction (packed weights);
// everything that varies per call lives here instead:
//   * the worker pool (nullptr = serial) — threading is decided at the
//     call site, not baked into the engine,
//   * one grow-only ScratchArena per worker, so the steady-state hot
//     path of repeated run() calls performs zero heap allocations,
//   * the kernel plane: every plan compiled on this context resolves
//     engine::select_plane(isa()) once and runs on that compiled plane
//     (kAuto: the widest plane the host runs, or the BIQ_ISA one).
//
// Ownership and thread-safety contract: an ExecContext may be used by
// one run() call at a time. Concurrent run() calls on the SAME engine
// are safe when each call brings its OWN context (contexts never share
// arenas). The 2-arg GemmEngine::run forwards to a per-thread default
// context, so plain `engine->run(x, y)` is also safe from any thread.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <vector>

#include "core/context.hpp"
#include "threading/thread_pool.hpp"
#include "util/aligned_buffer.hpp"

namespace biq {

/// Grow-only bump allocator backing one worker's kernel scratch
/// (BiQGEMM's xt/lut/ytile, int8's quantized activations, ...).
/// reset() starts a new frame: previous allocations are invalidated but
/// the backing storage is retained, so a frame whose requests fit the
/// high-water mark of earlier frames touches the heap zero times. A
/// frame that outgrows the arena spills to overflow blocks which the
/// next reset() consolidates into one right-sized block.
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(ScratchArena&&) noexcept = default;
  ScratchArena& operator=(ScratchArena&&) noexcept = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Begins a new frame. Invalidates every pointer handed out since the
  /// previous reset(); grows the main block when the last frame spilled.
  void reset() {
    if (frame_bytes_ > main_.size()) {
      main_ = AlignedBuffer<unsigned char>(frame_bytes_);
      ++heap_allocations_;
      overflow_.clear();
    }
    used_ = 0;
    frame_bytes_ = 0;
  }

  /// `count` elements of trivially-destructible T, 64-byte aligned,
  /// valid until the next reset(). Contents are uninitialized. Throws
  /// std::length_error, before allocating, when the byte count overflows.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "ScratchArena only supports trivially destructible types");
    return static_cast<T*>(
        alloc_bytes(checked_size_mul(count, sizeof(T), "ScratchArena::alloc")));
  }

  /// Bytes of the main (consolidated) block.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return main_.size();
  }
  /// Cumulative heap allocations ever made for backing storage — stable
  /// across calls once the arena is warm (the zero-allocation invariant
  /// the exec_context tests pin down).
  [[nodiscard]] std::size_t heap_allocations() const noexcept {
    return heap_allocations_;
  }

 private:
  [[nodiscard]] void* alloc_bytes(std::size_t bytes) {
    bytes = checked_round_up(bytes, kDefaultAlignment, "ScratchArena::alloc");
    frame_bytes_ += bytes;
    if (bytes <= main_.size() - used_) {
      void* p = main_.data() + used_;
      used_ += bytes;
      return p;
    }
    overflow_.emplace_back(bytes);
    ++heap_allocations_;
    return overflow_.back().data();
  }

  AlignedBuffer<unsigned char> main_;
  std::vector<AlignedBuffer<unsigned char>> overflow_;
  std::size_t used_ = 0;         // bytes handed out of main_ this frame
  std::size_t frame_bytes_ = 0;  // total rounded bytes requested this frame
  std::size_t heap_allocations_ = 0;
};

class ExecContext {
 public:
  /// `pool` nullptr runs serial; `isa` != kAuto puts every plan compiled
  /// on this context onto that kernel plane (plan() throws
  /// std::runtime_error when the plane is unavailable, as select_plane
  /// does).
  explicit ExecContext(ThreadPool* pool = nullptr,
                       KernelIsa isa = KernelIsa::kAuto)
      : pool_(pool), isa_(isa), arenas_(worker_count()) {}

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Teardown-ordering guard: a live model block here means a ModelPlan
  /// (or a plan cache / pool holding one) outlives this context — that
  /// plan's destructor would call free_model_block on a dead context, a
  /// use-after-free. Fail loudly at the earlier, still-defined point
  /// instead of corrupting memory later: destroy plans (and the caches,
  /// pools and servers that own them) BEFORE their ExecContext.
  ~ExecContext() {
    if (!model_blocks_.empty()) {
      std::fprintf(stderr,
                   "ExecContext destroyed with %zu live model block(s): a "
                   "ModelPlan outlived its ExecContext; destroy plans (and "
                   "plan caches/pools) before the context they bind to\n",
                   model_blocks_.size());
      std::abort();
    }
  }

  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_; }
  [[nodiscard]] unsigned worker_count() const noexcept {
    return pool_ != nullptr ? pool_->worker_count() : 1u;
  }
  [[nodiscard]] KernelIsa isa() const noexcept { return isa_; }

  /// Worker `id`'s arena (the calling thread is worker 0). Each worker
  /// may only touch its own arena inside a parallel region; the calling
  /// thread allocates region-shared buffers from arena 0 *before*
  /// entering the region.
  [[nodiscard]] ScratchArena& scratch(unsigned worker) noexcept {
    return arenas_[worker];
  }

  /// Sum of heap_allocations() over all arenas — the warm-path
  /// zero-allocation metric.
  [[nodiscard]] std::size_t scratch_heap_allocations() const noexcept {
    std::size_t total = 0;
    for (const ScratchArena& a : arenas_) total += a.heap_allocations();
    return total;
  }

  /// Model-scope activation storage for whole-model plans
  /// (nn::ModelPlan): one block per compiled plan, sized by the
  /// liveness planner at plan time and returned by the plan's
  /// destructor — a block's lifetime exactly equals its plan's, so
  /// batch-varying replan traffic cannot grow the context unboundedly
  /// and there is no whole-context reclaim to misuse. Blocks are
  /// kDefaultAlignment-aligned and stable: allocating or freeing one
  /// never moves another. Like plan compilation itself, these are
  /// control-path calls — one caller at a time per context.
  [[nodiscard]] float* alloc_model_block(std::size_t floats) {
    model_blocks_.emplace_back(floats);
    return model_blocks_.back().data();
  }
  void free_model_block(const float* block) noexcept {
    for (std::size_t i = 0; i < model_blocks_.size(); ++i) {
      if (model_blocks_[i].data() == block) {
        model_blocks_[i] = std::move(model_blocks_.back());
        model_blocks_.pop_back();
        return;
      }
    }
  }
  /// Bytes of live model blocks — the activation footprint of every
  /// currently-compiled plan on this context.
  [[nodiscard]] std::size_t model_block_bytes() const noexcept {
    std::size_t total = 0;
    for (const AlignedBuffer<float>& b : model_blocks_) {
      total += b.size_bytes();
    }
    return total;
  }

  /// The serial per-thread context behind the 2-arg GemmEngine::run
  /// forwarder: scratch persists across calls (warm after the first),
  /// and each OS thread gets its own, so 2-arg run is thread-safe.
  static ExecContext& thread_default();

 private:
  ThreadPool* pool_ = nullptr;
  KernelIsa isa_ = KernelIsa::kAuto;
  std::vector<ScratchArena> arenas_;  // sized worker_count(), never resized
  std::vector<AlignedBuffer<float>> model_blocks_;  // one per live ModelPlan
};

}  // namespace biq
