// The one module that decides how every engine splits its work over
// the context's pool. Two layers:
//   * for_each_tile: a range of interchangeable tiles — packed panels,
//     output-row blocks, batch columns — cut into grain-sized chunks
//     served from a dynamic queue (blocked, int8, unpack);
//   * for_each_item / for_each_cell: one parallel region per call over
//     independent work items, each on one worker with that worker's
//     arena freshly reset and its scratch carved there. for_each_cell's
//     items are (column, row range) pairs, with row_ranges(ctx, cols,
//     rows) ranges per column: a wide batch runs whole columns in
//     parallel, a narrow one (batch 1 included) cuts each column's rows
//     into one range per worker. BiQGEMM (batch tiles x rows), naive and
//     xnor (columns x rows) and tmac-lut (columns x 32-row tiles) all run
//     this rule, and there is no option for it; BiQGEMM's prepare runs
//     (batch tile, LUT chunk) items through for_each_item.
// Centralizing this keeps three properties uniform across backends:
//   * determinism: tiles and items are units of identical arithmetic,
//     so 1-thread and N-thread runs are bitwise equal
//     (engine_registry_test pins this for every registered engine),
//   * worker identity: fn receives the worker id, which is the key into
//     the context's per-worker scratch arenas,
//   * zero allocation: dispatch rides ThreadPool::run_raw with a stack
//     job record, and for_each_item prewarms every worker's arena on
//     every call — nothing on the steady-state path touches the heap
//     after the first call.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "engine/exec_context.hpp"
#include "threading/thread_pool.hpp"

namespace biq::engine {

/// Per-column completion barrier for column-granular epilogue stages
/// (LayerNorm): one atomic row count per output column, allocated once
/// at plan time and handed to EpilogueOp as a raw pointer, so the warm
/// run path stays allocation-free. Counters are self-resetting — the
/// worker that brings a column to its full row count stores 0 before
/// running the column stage — so the barrier is reusable run after run
/// with no per-run sweep (plan->run joins its pool before returning,
/// which orders the reset against the next run's first tick).
class ColBarrier {
 public:
  ColBarrier() = default;
  explicit ColBarrier(std::size_t cols)
      : counts_(cols == 0 ? nullptr
                          : new std::atomic<std::uint32_t>[cols]),
        cols_(cols) {
    for (std::size_t c = 0; c < cols_; ++c) {
      counts_[c].store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::atomic<std::uint32_t>* data() const noexcept {
    return counts_.get();
  }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

 private:
  std::unique_ptr<std::atomic<std::uint32_t>[]> counts_;
  std::size_t cols_ = 0;
};

/// Chunks for_each_tile produces for (total, grain).
[[nodiscard]] constexpr std::size_t tile_count(std::size_t total,
                                               std::size_t grain) noexcept {
  return grain == 0 ? total : (total + grain - 1) / grain;
}

/// Runs fn(worker, lo, hi) over a partition of [0, total) into chunks of
/// at most `grain` (clamped to >= 1), dynamically load-balanced across
/// the context's pool. Serial contexts — and ranges that fit one grain —
/// run inline on the calling thread as worker 0.
template <typename Fn>
void for_each_tile(ExecContext& ctx, std::size_t total, std::size_t grain,
                   Fn&& fn) {
  if (total == 0) return;
  if (grain == 0) grain = 1;
  ThreadPool* pool = ctx.pool();
  if (pool == nullptr || pool->worker_count() == 1 || total <= grain) {
    fn(0u, std::size_t{0}, total);
    return;
  }

  struct Job {
    std::atomic<std::size_t> next{0};
    std::size_t chunks;
    std::size_t grain;
    std::size_t total;
    Fn* fn;
  } job{{}, tile_count(total, grain), grain, total, &fn};

  pool->run_raw(
      [](void* p, unsigned worker) {
        Job& j = *static_cast<Job*>(p);
        for (;;) {
          const std::size_t c = j.next.fetch_add(1, std::memory_order_relaxed);
          if (c >= j.chunks) break;
          const std::size_t lo = c * j.grain;
          (*j.fn)(worker, lo, std::min(j.total, lo + j.grain));
        }
      },
      &job);
}

/// One parallel region over `nitems` independent items. Each item runs
/// on one worker with that worker's arena freshly reset and its scratch
/// carved by make_scratch (ScratchArena& -> Scratch, called identically
/// for every item), then body(scratch, item). Items build whatever they
/// read privately, so no buffer is shared between workers and no item
/// waits on another.
///
/// Every worker's arena is prewarmed from the calling thread (no region
/// active yet) and consolidated by the second reset, so one run reaches
/// the zero-allocation steady state at any worker count, even for
/// workers the queue happened to starve. A serial context runs the
/// items inline, in order, on arena 0.
template <typename MakeScratch, typename ItemBody>
void for_each_item(ExecContext& ctx, std::size_t nitems,
                   MakeScratch&& make_scratch, ItemBody&& body) {
  if (nitems == 0) return;
  for (unsigned w = 0; w < ctx.worker_count(); ++w) {
    ScratchArena& arena = ctx.scratch(w);
    arena.reset();
    (void)make_scratch(arena);
    arena.reset();
  }
  for_each_tile(ctx, nitems, 1,
                [&](unsigned worker, std::size_t i0, std::size_t i1) {
                  ScratchArena& arena = ctx.scratch(worker);
                  for (std::size_t i = i0; i < i1; ++i) {
                    arena.reset();
                    auto scratch = make_scratch(arena);
                    body(scratch, i);
                  }
                });
}

/// Row ranges per column so that `cols` columns give every worker at
/// least one item: ceil(workers / cols), at most one per row.
[[nodiscard]] inline std::size_t row_ranges(const ExecContext& ctx,
                                            std::size_t cols,
                                            std::size_t rows) noexcept {
  const std::size_t workers = ctx.worker_count();
  const std::size_t ranges =
      (workers + cols - 1) / std::max<std::size_t>(cols, 1);
  return std::clamp<std::size_t>(ranges, 1, std::max<std::size_t>(rows, 1));
}

/// Row range r of `ranges` near-equal contiguous ranges over [0, rows).
struct RowRange {
  std::size_t i0, i1;
};
[[nodiscard]] constexpr RowRange row_range(std::size_t rows, std::size_t r,
                                           std::size_t ranges) noexcept {
  return {rows * r / ranges, rows * (r + 1) / ranges};
}

/// for_each_item over (column, row range) items, column-major, so a
/// serial context runs whole columns in order: body(scratch, col, i0,
/// i1) for each of the row_ranges(ctx, cols, rows) ranges of every
/// column. A "column" is whatever the engine keeps independent (a batch
/// column, a batch tile) and a "row" its unit of output rows (a row, a
/// row tile).
template <typename MakeScratch, typename CellBody>
void for_each_cell(ExecContext& ctx, std::size_t cols, std::size_t rows,
                   MakeScratch&& make_scratch, CellBody&& body) {
  const std::size_t ranges = row_ranges(ctx, cols, rows);
  for_each_item(ctx, cols * ranges, make_scratch,
                [&](auto& scratch, std::size_t item) {
                  const RowRange r = row_range(rows, item % ranges, ranges);
                  body(scratch, item / ranges, r.i0, r.i1);
                });
}

}  // namespace biq::engine
