#include "core/biqgemv.hpp"

#include <algorithm>
#include <vector>

#include "core/lut_builder.hpp"
#include "engine/dispatch.hpp"
#include "engine/partition.hpp"

namespace biq {
namespace {

template <typename KeyT>
const KeyT* key_row(const KeyMatrix& k, std::size_t i) noexcept {
  if constexpr (sizeof(KeyT) == 1) {
    return k.row8(i);
  } else {
    return k.row16(i);
  }
}

// When `prep` is non-null it points at the FULL flat LUT (table t at
// t << mu) and the per-chunk builds are skipped; the chunked query loop
// — and with it the float accumulation grouping `y[i] += total` per
// chunk — is replayed unchanged, which is what keeps the consume path
// bitwise identical to the fused build+query path.
template <typename KeyT>
void run(const std::vector<KeyMatrix>& keys,
         const std::vector<std::vector<float>>& alphas, const float* x,
         float* y, std::size_t m, std::size_t n, const BiqGemmOptions& opt,
         ExecContext& ctx, const engine::BiqKernels& kernels,
         const float* prep) {
  const unsigned mu = opt.mu;
  const std::size_t ntables = table_count(n, mu);
  const std::size_t entries = std::size_t{1} << mu;
  const std::size_t tile_tables =
      opt.tables_per_tile != 0
          ? opt.tables_per_tile
          : std::max<std::size_t>(
                1, opt.lut_tile_bytes / (entries * sizeof(float)));

  const auto row_fn = [&kernels] {
    if constexpr (sizeof(KeyT) == 1) {
      return kernels.gemv_row_u8;
    } else {
      return kernels.gemv_row_u16;
    }
  }();

  // The flat LUT tile is shared read-only by every query worker, so it
  // comes out of the calling thread's arena, allocated before the
  // parallel region.
  float* lut = nullptr;
  if (prep == nullptr) {
    ScratchArena& arena = ctx.scratch(0);
    arena.reset();
    lut = arena.alloc<float>(tile_tables * entries);
  }
  std::fill(y, y + m, 0.0f);

  const bool scaled = !alphas.empty();
  for (std::size_t t0 = 0; t0 < ntables; t0 += tile_tables) {
    const std::size_t tcount = std::min(tile_tables, ntables - t0);
    const float* tile_lut;
    if (prep == nullptr) {
      for (std::size_t g = 0; g < tcount; ++g) {
        const std::size_t base = (t0 + g) * mu;
        const std::size_t len = std::min<std::size_t>(mu, n - base);
        if (opt.use_dp_builder) {
          build_lut_dp(x + base, len, mu, lut + (g << mu));
        } else {
          build_lut_mm(x + base, len, mu, lut + (g << mu));
        }
      }
      tile_lut = lut;
    } else {
      tile_lut = prep + (static_cast<std::size_t>(t0) << mu);
    }
    engine::for_each_tile(
        ctx, m, opt.row_block,
        [&](unsigned /*worker*/, std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) {
            float total = 0.0f;
            for (std::size_t q = 0; q < keys.size(); ++q) {
              const float acc = row_fn(key_row<KeyT>(keys[q], i) + t0,
                                       tcount, mu, tile_lut);
              total += scaled ? alphas[q][i] * acc : acc;
            }
            y[i] += total;
          }
        });
  }
}

}  // namespace

void biqgemv_packed(const std::vector<KeyMatrix>& keys,
                    const std::vector<std::vector<float>>& alphas,
                    const float* x, float* y, std::size_t m, std::size_t n,
                    const BiqGemmOptions& opt, ExecContext& ctx,
                    const engine::BiqKernels& kernels) {
  if (keys.empty()) return;
  if (opt.mu > 8) {
    run<std::uint16_t>(keys, alphas, x, y, m, n, opt, ctx, kernels, nullptr);
  } else {
    run<std::uint8_t>(keys, alphas, x, y, m, n, opt, ctx, kernels, nullptr);
  }
}

void biqgemv_prepare_packed(const float* x, std::size_t n,
                            const BiqGemmOptions& opt, float* lut) {
  const unsigned mu = opt.mu;
  const std::size_t ntables = table_count(n, mu);
  // Same scalar builders as the fused path's chunk builds: table t's
  // contents depend only on x[t*mu .. t*mu+len), never on the chunk it
  // was built inside, so the flat artifact is bitwise what the fused
  // path would have streamed.
  for (std::size_t t = 0; t < ntables; ++t) {
    const std::size_t base = t * mu;
    const std::size_t len = std::min<std::size_t>(mu, n - base);
    if (opt.use_dp_builder) {
      build_lut_dp(x + base, len, mu, lut + (t << mu));
    } else {
      build_lut_mm(x + base, len, mu, lut + (t << mu));
    }
  }
}

void biqgemv_consume_packed(const std::vector<KeyMatrix>& keys,
                            const std::vector<std::vector<float>>& alphas,
                            const float* lut, float* y, std::size_t m,
                            std::size_t n, const BiqGemmOptions& opt,
                            ExecContext& ctx,
                            const engine::BiqKernels& kernels) {
  if (keys.empty()) return;
  if (opt.mu > 8) {
    run<std::uint16_t>(keys, alphas, nullptr, y, m, n, opt, ctx, kernels, lut);
  } else {
    run<std::uint8_t>(keys, alphas, nullptr, y, m, n, opt, ctx, kernels, lut);
  }
}

}  // namespace biq
