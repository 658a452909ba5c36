// The work-item driver behind every BiQGEMM call (fused, prepare and
// consume, at every batch width): one parallel region over `nitems`
// independent items, served from the shared partitioner's dynamic
// queue. Each item runs on one worker with that worker's arena freshly
// reset and its scratch carved by make_scratch (ScratchArena& ->
// Scratch, called identically for every item), then body(scratch, item).
// Items build whatever tables they read privately, so no buffer is
// shared between workers and no item waits on another.
//
// Every worker's arena is pre-warmed from the calling thread (no region
// active yet), so the zero-allocation steady state is reached after one
// run even for workers the queue happened to starve. A serial context
// runs the items inline, in order, on arena 0.
//
// Items are units of identical arithmetic at any worker count, so the
// partition preserves the engines' bitwise 1-vs-N-thread determinism.
#pragma once

#include <algorithm>
#include <cstddef>

#include "engine/exec_context.hpp"
#include "engine/partition.hpp"

namespace biq::engine {

template <typename MakeScratch, typename ItemBody>
void for_each_item(ExecContext& ctx, std::size_t nitems,
                   MakeScratch&& make_scratch, ItemBody&& body) {
  if (nitems == 0) return;
  if (ctx.worker_count() > 1) {
    for (unsigned w = 0; w < ctx.worker_count(); ++w) {
      ScratchArena& arena = ctx.scratch(w);
      arena.reset();
      (void)make_scratch(arena);
    }
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

/// Row ranges per batch tile so that `ntiles` tiles give every worker
/// at least one item: ceil(workers / ntiles), at most one per row. A
/// wide batch gets one range per tile (whole tiles in parallel); a
/// narrow one cuts each tile's output rows into ranges, each of which
/// builds the tile's tables itself and queries only its rows.
[[nodiscard]] inline std::size_t row_ranges(const ExecContext& ctx,
                                            std::size_t ntiles,
                                            std::size_t m) noexcept {
  const std::size_t workers = ctx.worker_count();
  const std::size_t ranges =
      (workers + ntiles - 1) / std::max<std::size_t>(ntiles, 1);
  return std::clamp<std::size_t>(ranges, 1, std::max<std::size_t>(m, 1));
}

/// Row range r of `ranges` near-equal contiguous ranges over [0, m).
struct RowRange {
  std::size_t i0, i1;
};
[[nodiscard]] constexpr RowRange row_range(std::size_t m, std::size_t r,
                                           std::size_t ranges) noexcept {
  return {m * r / ranges, m * (r + 1) / ranges};
}

}  // namespace biq::engine
