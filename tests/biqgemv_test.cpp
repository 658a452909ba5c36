#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "core/biqgemm.hpp"
#include "gemm/gemm_ref.hpp"
#include "quant/greedy.hpp"
#include "util/aligned_buffer.hpp"

namespace biq {
namespace {

struct GemvCase {
  int m, n;
  unsigned mu, bits;
};

class BiqGemvSweep : public ::testing::TestWithParam<GemvCase> {};

TEST_P(BiqGemvSweep, MatchesReference) {
  const GemvCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.m) * 31 + c.n * 7 + c.mu + c.bits);
  Matrix w = Matrix::random_normal(c.m, c.n, rng);
  const BinaryCodes codes = quantize_greedy(w, c.bits);
  Matrix x = Matrix::random_normal(c.n, 1, rng);

  Matrix expected(c.m, 1), actual(c.m, 1);
  gemm_codes_ref(codes, x, expected);

  BiqGemmOptions opt;
  opt.mu = c.mu;
  const BiqGemm kernel(codes, opt);
  kernel.run(x, actual);
  EXPECT_TRUE(allclose(actual, expected, 2e-3f, 2e-3f))
      << "m=" << c.m << " n=" << c.n << " mu=" << c.mu << " bits=" << c.bits
      << " maxdiff=" << max_abs_diff(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BiqGemvSweep,
    ::testing::Values(GemvCase{64, 512, 8, 1},   // >= 8 tables: gather path
                      GemvCase{64, 512, 8, 3},   // multi-bit gather
                      GemvCase{100, 100, 8, 1},  // ragged tables + tail
                      GemvCase{32, 48, 8, 1},    // < 8 tables: scalar path
                      GemvCase{16, 24, 4, 2},    // small mu
                      GemvCase{50, 300, 11, 1},  // wide (uint16) keys
                      GemvCase{50, 300, 16, 1},  // max mu
                      GemvCase{1, 8, 8, 1},      // single row
                      GemvCase{3, 1, 8, 1}));    // single input element

TEST(BiqGemv, MatchesBatchKernelColumnByColumn) {
  Rng rng(71);
  Matrix w = Matrix::random_normal(48, 96, rng);
  const BinaryCodes codes = quantize_greedy(w, 2);
  Matrix x = Matrix::random_normal(96, 4, rng);

  const BiqGemm kernel(codes, {});
  Matrix batch(48, 4);
  kernel.run(x, batch);

  for (std::size_t c = 0; c < 4; ++c) {
    Matrix xc(96, 1), yc(48, 1);
    for (std::size_t k = 0; k < 96; ++k) xc(k, 0) = x(k, c);
    kernel.run(xc, yc);
    for (std::size_t i = 0; i < 48; ++i) {
      EXPECT_NEAR(yc(i, 0), batch(i, c), 2e-3f) << "col " << c << " row " << i;
    }
  }
}

// Batch 1 runs one batch tile one lane wide: each worker queries its
// own row range against its own copy of the tables, in the same chunk
// order, so the output is bitwise the serial one at any worker count,
// for per-row and multi-group scales, fused and from a prepared LUT.
TEST(BiqGemv, ThreadedMatchesSerial) {
  Rng rng(73);
  Matrix w = Matrix::random_normal(512, 256, rng);
  const BiqGemm per_row(quantize_greedy(w, 1), {});
  const BiqGemm grouped(quantize_greedy_grouped(w, 2, 64), {});
  Matrix x = Matrix::random_normal(256, 1, rng);

  for (const BiqGemm* engine : {&per_row, &grouped}) {
    Matrix serial(512, 1);
    engine->run(x, serial);
    for (const unsigned workers : {2u, 3u, 4u}) {
      ThreadPool pool(workers);
      ExecContext ctx(&pool);
      const std::unique_ptr<GemmPlan> plan = engine->plan(1, ctx);
      Matrix fused(512, 1), consumed(512, 1);
      plan->run(x, fused);
      AlignedBuffer<float> storage(plan->prep_floats());
      PrepHandle prep(storage.data(), storage.size());
      plan->prepare(x, prep);
      plan->run(prep, consumed);
      for (const Matrix* y : {&fused, &consumed}) {
        EXPECT_EQ(std::memcmp(serial.col(0), y->col(0), 512 * sizeof(float)),
                  0)
            << engine->name() << ", " << workers << " workers, "
            << (y == &fused ? "fused" : "prepared");
      }
    }
  }
}

TEST(BiqGemv, SmallLutTileStillCorrect) {
  Rng rng(79);
  Matrix w = Matrix::random_normal(64, 200, rng);
  const BinaryCodes codes = quantize_greedy(w, 2);
  Matrix x = Matrix::random_normal(200, 1, rng);

  Matrix expected(64, 1), actual(64, 1);
  gemm_codes_ref(codes, x, expected);
  BiqGemmOptions opt;
  opt.tables_per_tile = 2;  // forces many build/query passes
  BiqGemm(codes, opt).run(x, actual);
  EXPECT_TRUE(allclose(actual, expected, 2e-3f, 2e-3f));
}

TEST(BiqGemv, MmBuilderMatchesDp) {
  Rng rng(89);
  Matrix w = Matrix::random_normal(40, 128, rng);
  const BinaryCodes codes = quantize_greedy(w, 1);
  Matrix x = Matrix::random_normal(128, 1, rng);
  Matrix via_dp(40, 1), via_mm(40, 1);
  BiqGemmOptions opt;
  BiqGemm(codes, opt).run(x, via_dp);
  opt.use_dp_builder = false;
  BiqGemm(codes, opt).run(x, via_mm);
  EXPECT_LT(max_abs_diff(via_dp, via_mm), 1e-4f);
}

}  // namespace
}  // namespace biq
