// Execution options and tile planning for the BiQGEMM kernel (paper
// Sec. III-B tiling, Fig. 7).
#pragma once

#include <cstddef>
#include <optional>

namespace biq {

/// Which compiled kernel plane the GEMM hot loops run on: the isa of
/// the ExecContext a plan is compiled on. kAuto resolves against
/// cpu_features() (overridable process-wide with the BIQ_ISA environment
/// variable, e.g. BIQ_ISA=scalar); an explicit plane makes plan() throw
/// when it is not available in this binary / on this host. See
/// engine/dispatch.hpp.
enum class KernelIsa { kAuto, kScalar, kAvx2, kAvx512 };

/// LUT tile budget used when BiqGemmOptions::tables_per_tile == 0. The
/// batched query keeps four independent lookup chains in flight, so
/// reading the LUT from L2 slows it only moderately, while a taller tile
/// cuts the chunk passes over y; the sweet spot is a large-but-L2-resident
/// tile — see bench/ablation_tile_threads for the measured curve.
inline constexpr std::size_t kLutTileBytes = 256 * 1024;

struct BiqGemmOptions {
  /// LUT-unit (Definition 1), any value in [1, 16]. Unset, the engine
  /// picks it at set-up from its rows and bit planes
  /// (select_lut_unit in core/mu_select.hpp: mu 6 for 512 rows, 7-8 for
  /// the paper's 1K-4K rows, where the paper fixes 8); set it to pin one,
  /// as the ablations do.
  std::optional<unsigned> mu;
  /// Tables per LUT tile (tile height in Fig. 7); 0 = derive from
  /// kLutTileBytes (an L2-sized tile). A plan clamps the height to the
  /// layer's table count. (Threading and the kernel plane are call-time
  /// choices: pass an ExecContext to plan() or run(); how a call splits
  /// its work follows from the worker count and the batch, so options
  /// carry only geometry.)
  std::size_t tables_per_tile = 0;
  /// false selects the GEMM-style LUT builder (Fig. 4a) instead of the
  /// dynamic-programming one — exists for the Tc,dp vs Tc,mm ablation.
  bool use_dp_builder = true;
};

/// Resolved tiling geometry for one (shape, options) pair.
struct TilePlan {
  std::size_t lanes = 8;            // batch columns per tile (vector width)
  std::size_t tables_per_tile = 4;  // LUT tile height
};

/// Derives the plan: `lanes` batch columns per tile — the plan's kernel
/// plane's query_lanes, whatever the batch (a narrower batch runs one
/// tile zero-padded to that width), or 1 for BiqGemm's one-lane batch-1
/// tile — and the tile height from the byte budget at that width and the
/// engine's LUT unit `mu` (at least 1).
[[nodiscard]] TilePlan plan_tiles(const BiqGemmOptions& opt, unsigned mu,
                                  std::size_t lanes);

}  // namespace biq
