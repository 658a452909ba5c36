#include "core/context.hpp"

#include <algorithm>

namespace biq {

TilePlan plan_tiles(const BiqGemmOptions& opt, unsigned mu,
                    std::size_t lanes) {
  TilePlan plan;
  plan.lanes = lanes;

  if (opt.tables_per_tile != 0) {
    plan.tables_per_tile = opt.tables_per_tile;
  } else {
    const std::size_t entries = std::size_t{1} << mu;
    const std::size_t bytes_per_table = entries * plan.lanes * sizeof(float);
    plan.tables_per_tile =
        std::max<std::size_t>(1, kLutTileBytes / std::max<std::size_t>(
                                                     bytes_per_table, 1));
  }
  return plan;
}

}  // namespace biq
