// Execution options and tile planning for the BiQGEMM kernel (paper
// Sec. III-B tiling, Fig. 7).
#pragma once

#include <cstddef>

namespace biq {

/// Which compiled kernel plane the BiQGEMM hot loops run on. kAuto
/// resolves against cpu_features() at engine construction (overridable
/// with the BIQ_ISA environment variable, e.g. BIQ_ISA=scalar); an
/// explicit plane throws at construction when it is not available in
/// this binary / on this host. See engine/dispatch.hpp.
enum class KernelIsa { kAuto, kScalar, kAvx2, kAvx512 };

struct BiqGemmOptions {
  /// LUT-unit (Definition 1). 8 matches the paper's empirically optimal
  /// choice; any value in [1, 16] is supported.
  unsigned mu = 8;
  /// Tables per LUT tile (tile height in Fig. 7); 0 = derive from
  /// lut_tile_bytes so a tile fits comfortably in L1.
  std::size_t tables_per_tile = 0;
  /// LUT tile budget used when tables_per_tile == 0. Random-access LUT
  /// reads tolerate L2 latency well (two independent accumulator
  /// chains), so the sweet spot is a large-but-L2-resident tile — see
  /// bench/ablation_tile_threads for the measured curve.
  std::size_t lut_tile_bytes = 256 * 1024;
  /// Row-block size for the query phase when work is split across
  /// threads. (Threading itself is a call-time choice: pass an
  /// ExecContext with a pool to run(); options carry only geometry.)
  std::size_t row_block = 128;
  /// false selects the GEMM-style LUT builder (Fig. 4a) instead of the
  /// dynamic-programming one — exists for the Tc,dp vs Tc,mm ablation.
  bool use_dp_builder = true;
  /// Kernel plane for the build/query hot loops. Resolved to a function
  /// table once, at engine construction (see engine/dispatch.hpp).
  KernelIsa isa = KernelIsa::kAuto;
};

/// Resolved tiling geometry for one (shape, options) pair.
struct TilePlan {
  std::size_t lanes = 8;            // batch columns per tile (vector width)
  std::size_t tables_per_tile = 4;  // LUT tile height
  std::size_t row_block = 128;      // rows per query work item
};

/// Derives the plan: lanes = the *runtime-dispatched* vector width of
/// the selected kernel plane (clamped to b), tile height from the byte
/// budget (at least 1), row_block clamped to [16, m]. Callers that
/// already hold their resolved kernel table (BiqGemm) pass its
/// query_lanes as `lanes_hint`; 0 resolves the plane from opt.isa.
[[nodiscard]] TilePlan plan_tiles(std::size_t m, std::size_t b,
                                  const BiqGemmOptions& opt,
                                  std::size_t lanes_hint = 0);

}  // namespace biq
