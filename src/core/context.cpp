#include "core/context.hpp"

#include <algorithm>

#include "engine/dispatch.hpp"

namespace biq {

TilePlan plan_tiles(const BiqGemmOptions& opt, std::size_t lanes_hint) {
  TilePlan plan;
  // Lane count comes from the runtime-dispatched kernel plane, not a
  // compile-time SIMD constant: the plane chosen at engine construction
  // decides how many batch columns one query step covers.
  plan.lanes =
      lanes_hint != 0 ? lanes_hint : engine::select_kernels(opt.isa).query_lanes;

  if (opt.tables_per_tile != 0) {
    plan.tables_per_tile = opt.tables_per_tile;
  } else {
    const std::size_t entries = std::size_t{1} << opt.mu;
    const std::size_t bytes_per_table = entries * plan.lanes * sizeof(float);
    plan.tables_per_tile =
        std::max<std::size_t>(1, opt.lut_tile_bytes / std::max<std::size_t>(
                                                          bytes_per_table, 1));
  }
  return plan;
}

}  // namespace biq
