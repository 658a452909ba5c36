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
/// The LUT tile lives in ctx's worker-0 arena and the query rows are
/// partitioned across ctx's pool. `kernels` is the caller's resolved
/// plane (BiqGemm's plan already applied any ctx override).
void biqgemv_packed(const std::vector<KeyMatrix>& keys,
                    const std::vector<std::vector<float>>& alphas,
                    const float* x, float* y, std::size_t m, std::size_t n,
                    const BiqGemmOptions& opt, ExecContext& ctx,
                    const engine::BiqKernels& kernels);

/// Prepare/consume split of biqgemv_packed. prepare builds the FULL flat
/// LUT from x (table_count(n, opt.mu) << opt.mu floats, table t at
/// t << mu) with the same scalar builders the fused path uses per
/// chunk; consume replays biqgemv_packed's chunked query loop against
/// it — same chunk sizes, same per-chunk `y[i] += total` accumulation —
/// so one prepare feeds any number of consumes, each bitwise identical
/// to the fused call. Neither touches ctx's arenas beyond reads.
void biqgemv_prepare_packed(const float* x, std::size_t n,
                            const BiqGemmOptions& opt, float* lut);
void biqgemv_consume_packed(const std::vector<KeyMatrix>& keys,
                            const std::vector<std::vector<float>>& alphas,
                            const float* lut, float* y, std::size_t m,
                            std::size_t n, const BiqGemmOptions& opt,
                            ExecContext& ctx,
                            const engine::BiqKernels& kernels);

}  // namespace biq
