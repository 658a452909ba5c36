#include "core/biqgemv.hpp"

#include <algorithm>
#include <vector>

#include "core/lut_builder.hpp"
#include "engine/dispatch.hpp"
#include "engine/plan_driver.hpp"

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

/// Scalar flat-table builds of tables [t0, t0 + tcount), table t0 + g at
/// lut + (g << mu): the same builders for the fused chunks and the full
/// prepared artifact, so both hold the same bits.
void build_tables(const float* x, std::size_t n, unsigned mu, bool use_dp,
                  std::size_t t0, std::size_t tcount, float* lut) {
  for (std::size_t g = 0; g < tcount; ++g) {
    const std::size_t base = (t0 + g) * mu;
    const std::size_t len = std::min<std::size_t>(mu, n - base);
    if (use_dp) {
      build_lut_dp(x + base, len, mu, lut + (g << mu));
    } else {
      build_lut_mm(x + base, len, mu, lut + (g << mu));
    }
  }
}

// One work item per row range: the item walks every chunk of
// `tile_tables` tables, building the chunk into its own arena (or, with
// `prep` non-null, reading it from the full flat LUT), and adds each
// row's chunk total into y[i]. The chunk sequence and with it the float
// grouping `y[i] += total` per chunk are the same for every row range
// and for the prepared path, which keeps all of them bitwise equal.
template <typename KeyT>
void run(const std::vector<KeyMatrix>& keys,
         const std::vector<std::vector<float>>& alphas, const float* x,
         const float* prep, float* y, std::size_t m, std::size_t n,
         const BiqGemmOptions& opt, std::size_t tile_tables, ExecContext& ctx,
         const engine::BiqKernels& kernels) {
  const unsigned mu = opt.mu;
  const std::size_t ntables = table_count(n, mu);
  const auto row_fn = [&kernels] {
    if constexpr (sizeof(KeyT) == 1) {
      return kernels.gemv_row_u8;
    } else {
      return kernels.gemv_row_u16;
    }
  }();
  const bool scaled = !alphas.empty();
  const std::size_t ranges = engine::row_ranges(ctx, 1, m);

  engine::for_each_item(
      ctx, ranges,
      [&](ScratchArena& arena) {
        return prep == nullptr ? arena.alloc<float>(tile_tables << mu)
                               : nullptr;
      },
      [&](float* lut, std::size_t r) {
        const auto [i0, i1] = engine::row_range(m, r, ranges);
        std::fill(y + i0, y + i1, 0.0f);
        for (std::size_t t0 = 0; t0 < ntables; t0 += tile_tables) {
          const std::size_t tcount = std::min(tile_tables, ntables - t0);
          const float* tile_lut = lut;
          if (prep == nullptr) {
            build_tables(x, n, mu, opt.use_dp_builder, t0, tcount, lut);
          } else {
            tile_lut = prep + (t0 << mu);
          }
          for (std::size_t i = i0; i < i1; ++i) {
            float total = 0.0f;
            for (std::size_t q = 0; q < keys.size(); ++q) {
              const float acc = row_fn(key_row<KeyT>(keys[q], i) + t0,
                                       tcount, mu, tile_lut);
              total += scaled ? alphas[q][i] * acc : acc;
            }
            y[i] += total;
          }
        }
      });
}

}  // namespace

void biqgemv_packed(const std::vector<KeyMatrix>& keys,
                    const std::vector<std::vector<float>>& alphas,
                    const float* x, const float* prep, float* y, std::size_t m,
                    std::size_t n, const BiqGemmOptions& opt,
                    std::size_t tile_tables, ExecContext& ctx,
                    const engine::BiqKernels& kernels) {
  if (keys.empty()) return;
  if (opt.mu > 8) {
    run<std::uint16_t>(keys, alphas, x, prep, y, m, n, opt, tile_tables, ctx,
                       kernels);
  } else {
    run<std::uint8_t>(keys, alphas, x, prep, y, m, n, opt, tile_tables, ctx,
                      kernels);
  }
}

void biqgemv_prepare_packed(const float* x, std::size_t n,
                            const BiqGemmOptions& opt, float* lut) {
  // Table t's contents depend only on x[t*mu .. t*mu+len), never on the
  // chunk it was built inside, so the flat artifact is bitwise what the
  // fused path would have streamed.
  build_tables(x, n, opt.mu, opt.use_dp_builder, 0, table_count(n, opt.mu),
               lut);
}

}  // namespace biq
