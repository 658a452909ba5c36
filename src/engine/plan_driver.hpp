// The batch-tile execution driver behind BiQGEMM's fused, prepare and
// consume paths:
//
//   wide batch (ntiles >= workers): batch tiles write disjoint output
//     columns, so they run embarrassingly parallel off a dynamic tile
//     queue, one arena-backed scratch per worker. Every worker's arena
//     is pre-warmed from the calling thread (no region active yet), so
//     the zero-allocation steady state is reached after one run even for
//     workers the queue happened to starve.
//
//   narrow batch: tiles run in order on the calling thread, and the
//     per-tile body may split its query phase over output rows through
//     the row_ctx it receives.
//
// The driver is parameterized over the scratch layout (make_scratch:
// ScratchArena& -> Scratch, called identically for the pre-warm and the
// real tiles, so the warm-path guarantee cannot drift out of sync with
// the sizes) and the per-tile body (body: Scratch&, tile index, row_ctx).
// Tiles are units of identical arithmetic at any worker count, so the
// partition preserves the engines' bitwise 1-vs-N-thread determinism.
#pragma once

#include <cstddef>

#include "engine/exec_context.hpp"
#include "engine/partition.hpp"

namespace biq::engine {

template <typename MakeScratch, typename TileBody>
void drive_batch_tiles(ExecContext& ctx, std::size_t ntiles,
                       MakeScratch&& make_scratch, TileBody&& body) {
  if (ntiles == 0) return;

  if (ctx.worker_count() > 1 && ntiles >= ctx.worker_count()) {
    for (unsigned w = 0; w < ctx.worker_count(); ++w) {
      ScratchArena& arena = ctx.scratch(w);
      arena.reset();
      (void)make_scratch(arena);
    }
    for_each_tile(ctx, ntiles, 1,
                  [&](unsigned worker, std::size_t t0, std::size_t t1) {
                    for (std::size_t t = t0; t < t1; ++t) {
                      ScratchArena& arena = ctx.scratch(worker);
                      arena.reset();
                      auto scratch = make_scratch(arena);
                      body(scratch, t, static_cast<ExecContext*>(nullptr));
                    }
                  });
    return;
  }

  ScratchArena& arena = ctx.scratch(0);
  for (std::size_t t = 0; t < ntiles; ++t) {
    arena.reset();
    auto scratch = make_scratch(arena);
    body(scratch, t, &ctx);
  }
}

}  // namespace biq::engine
