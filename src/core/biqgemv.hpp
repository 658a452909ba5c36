// Batch-1 fast path (GEMV): with a single activation column there is no
// batch lane to vectorize over, so each LUT is a flat 2^mu array and the
// query loop vectorizes across *tables* instead — AVX2 gathers of 8
// table entries per instruction on the vector planes, a 4-way unroll on
// the scalar plane, chosen at runtime through engine/dispatch.hpp. This
// is the regime where the paper reports its largest wins (Table IV,
// b = 1).
#pragma once

#include <cstddef>
#include <vector>

#include "core/context.hpp"
#include "core/key_matrix.hpp"
#include "engine/exec_context.hpp"

namespace biq {

namespace engine {
struct BiqKernels;
}

/// y = sum_q alpha_q o (B_q . x) computed from packed keys.
/// x has length n, y length m (overwritten). `alphas` empty = unit scale.
/// All KeyMatrix planes must share mu == opt.mu and shape m x ceil(n/mu).
/// The tables are walked in chunks of `tile_tables` (BiqGemm's plan
/// derives it with plan_tiles at one lane). Each of ctx's workers takes
/// one contiguous row range and builds every chunk into its own arena,
/// so no table is shared between cores. `prep` non-null is the full flat
/// LUT from biqgemv_prepare_packed: the builds are skipped (x is unused)
/// and the same chunked query runs against it, bitwise equal to the
/// fused call. `kernels` is the caller's resolved plane (BiqGemm's plan
/// already applied any ctx override).
void biqgemv_packed(const std::vector<KeyMatrix>& keys,
                    const std::vector<std::vector<float>>& alphas,
                    const float* x, const float* prep, float* y, std::size_t m,
                    std::size_t n, const BiqGemmOptions& opt,
                    std::size_t tile_tables, ExecContext& ctx,
                    const engine::BiqKernels& kernels);

/// Builds the FULL flat LUT from x (table_count(n, opt.mu) << opt.mu
/// floats, table t at t << mu) with the scalar builders the fused path
/// uses per chunk, so one prepare feeds any number of biqgemv_packed
/// calls with `prep` set.
void biqgemv_prepare_packed(const float* x, std::size_t n,
                            const BiqGemmOptions& opt, float* lut);

}  // namespace biq
