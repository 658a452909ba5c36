// Randomized equivalence fuzzing: many random (shape, mu, bits, options)
// configurations, each checked against the Eq. 2 reference. Catches the
// interactions the hand-picked sweeps miss (odd tails x tile sizes x
// lane widths x threading).
#include <gtest/gtest.h>

#include "core/biqgemm.hpp"
#include "gemm/gemm_ref.hpp"
#include "quant/greedy.hpp"

namespace biq {
namespace {

struct FuzzConfig {
  std::size_t m, n, b;
  unsigned mu, bits;
  std::size_t tables_per_tile;
  bool use_dp;
  bool threaded;
};

FuzzConfig draw_config(Rng& rng) {
  FuzzConfig c;
  c.m = 1 + rng.next_below(160);
  c.n = 1 + rng.next_below(200);
  c.b = 1 + rng.next_below(40);
  c.mu = 1 + static_cast<unsigned>(rng.next_below(12));
  c.bits = 1 + static_cast<unsigned>(rng.next_below(4));
  c.tables_per_tile = rng.next_below(2) != 0 ? 0 : 1 + rng.next_below(6);
  c.use_dp = rng.next_below(4) != 0;  // mostly DP, sometimes MM
  c.threaded = rng.next_below(3) == 0;
  return c;
}

class BiqGemmFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BiqGemmFuzz, RandomConfigsMatchReference) {
  Rng rng(0xF00D + static_cast<std::uint64_t>(GetParam()) * 7919);
  ThreadPool pool(3);
  ExecContext pool_ctx(&pool);
  for (int trial = 0; trial < 12; ++trial) {
    const FuzzConfig c = draw_config(rng);
    Matrix w = Matrix::random_normal(c.m, c.n, rng);
    const BinaryCodes codes = quantize_greedy(w, c.bits);
    Matrix x = Matrix::random_normal(c.n, c.b, rng);

    Matrix expected(c.m, c.b), actual(c.m, c.b);
    gemm_codes_ref(codes, x, expected);

    BiqGemmOptions opt;
    opt.mu = c.mu;
    opt.tables_per_tile = c.tables_per_tile;
    opt.use_dp_builder = c.use_dp;
    actual.fill(-999.0f);
    if (c.threaded) {
      BiqGemm(codes, opt).run(x, actual, pool_ctx);
    } else {
      BiqGemm(codes, opt).run(x, actual);
    }

    ASSERT_TRUE(allclose(actual, expected, 3e-3f, 3e-3f))
        << "m=" << c.m << " n=" << c.n << " b=" << c.b << " mu=" << c.mu
        << " bits=" << c.bits << " tpt=" << c.tables_per_tile
        << " dp=" << c.use_dp << " threaded=" << c.threaded
        << " maxdiff=" << max_abs_diff(actual, expected);
  }
}

// 8 seeds x 12 trials = 96 random configurations per run.
INSTANTIATE_TEST_SUITE_P(Seeds, BiqGemmFuzz, ::testing::Range(0, 8));

class BiqGemmStridedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BiqGemmStridedFuzz, NonDenseLeadingDimensionsMatchDenseBitwise) {
  // Views into larger buffers (ld > rows) must take the exact same
  // kernel paths as dense runs — same tiles, same SIMD lanes, same
  // accumulation order — so the strided result is bitwise equal to the
  // dense one for every (shape, mu, bits, threading) draw, and nothing
  // outside the output window is written. This extends the dense
  // scalar-vs-SIMD fuzz coverage to the strided paths: whatever plane
  // this host dispatches, strided and dense agree bit for bit.
  Rng rng(0xCAFE + static_cast<std::uint64_t>(GetParam()) * 104729);
  ThreadPool pool(3);
  ExecContext pool_ctx(&pool);
  for (int trial = 0; trial < 10; ++trial) {
    const FuzzConfig c = draw_config(rng);
    Matrix w = Matrix::random_normal(c.m, c.n, rng);
    const BinaryCodes codes = quantize_greedy(w, c.bits);
    Matrix x = Matrix::random_normal(c.n, c.b, rng);

    BiqGemmOptions opt;
    opt.mu = c.mu;
    opt.tables_per_tile = c.tables_per_tile;
    opt.use_dp_builder = c.use_dp;
    const BiqGemm engine(codes, opt);

    ExecContext serial_ctx;
    ExecContext& ctx = c.threaded ? pool_ctx : serial_ctx;
    Matrix y_dense(c.m, c.b);
    engine.run(x, y_dense, ctx);

    // Random interior windows: x and y live inside larger buffers.
    const std::size_t xr0 = rng.next_below(5), xc0 = rng.next_below(3);
    const std::size_t yr0 = rng.next_below(5), yc0 = rng.next_below(3);
    Matrix x_big(c.n + xr0 + rng.next_below(7), c.b + xc0 + rng.next_below(3),
                 /*zero_fill=*/false);
    x_big.fill(1e9f);  // poison: reading outside the window would show
    for (std::size_t col = 0; col < c.b; ++col) {
      for (std::size_t i = 0; i < c.n; ++i) {
        x_big(xr0 + i, xc0 + col) = x(i, col);
      }
    }
    Matrix y_big(c.m + yr0 + rng.next_below(7), c.b + yc0 + rng.next_below(3),
                 /*zero_fill=*/false);
    y_big.fill(-7.25f);

    const auto plan = engine.plan(c.b, ctx);
    plan->run(x_big.block(xr0, c.n, xc0, c.b),
              y_big.block(yr0, c.m, yc0, c.b));

    for (std::size_t col = 0; col < y_big.cols(); ++col) {
      for (std::size_t i = 0; i < y_big.rows(); ++i) {
        const bool inside = i >= yr0 && i < yr0 + c.m && col >= yc0 &&
                            col < yc0 + c.b;
        if (inside) {
          ASSERT_EQ(y_big(i, col), y_dense(i - yr0, col - yc0))
              << "m=" << c.m << " n=" << c.n << " b=" << c.b
              << " mu=" << c.mu << " bits=" << c.bits
              << " threaded=" << c.threaded << " at (" << i << "," << col
              << ")";
        } else {
          ASSERT_EQ(y_big(i, col), -7.25f)
              << "wrote outside the window at (" << i << "," << col << ")";
        }
      }
    }
  }
}

// 6 seeds x 10 trials = 60 random strided configurations per run.
INSTANTIATE_TEST_SUITE_P(Seeds, BiqGemmStridedFuzz, ::testing::Range(0, 6));

TEST(BiqGemmFuzz, DegenerateShapeGrid) {
  // Exhaustive grid over the smallest shapes, where every edge condition
  // (single row, single column, tail-only tables) concentrates.
  Rng rng(0xBEEF);
  ThreadPool pool(2);
  ExecContext ctx(&pool);
  for (std::size_t m : {1u, 2u, 3u}) {
    for (std::size_t n : {1u, 2u, 7u, 8u, 9u}) {
      for (std::size_t b : {1u, 2u, 8u, 9u}) {
        for (unsigned mu : {1u, 3u, 8u}) {
          Matrix w = Matrix::random_normal(m, n, rng);
          const BinaryCodes codes = quantize_greedy(w, 2);
          Matrix x = Matrix::random_normal(n, b, rng);
          Matrix expected(m, b), actual(m, b);
          gemm_codes_ref(codes, x, expected);
          BiqGemmOptions opt;
          opt.mu = mu;
          BiqGemm(codes, opt).run(x, actual, ctx);
          ASSERT_TRUE(allclose(actual, expected, 3e-3f, 3e-3f))
              << "m=" << m << " n=" << n << " b=" << b << " mu=" << mu;
        }
      }
    }
  }
}

}  // namespace
}  // namespace biq
