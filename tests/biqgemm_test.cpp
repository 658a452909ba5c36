// The central equivalence suite: every BiQGEMM configuration must
// reproduce the reference Eq.-2 result exactly (up to fp reassociation).
#include <gtest/gtest.h>

#include <tuple>

#include "core/biqgemm.hpp"
#include "gemm/gemm_ref.hpp"
#include "quant/greedy.hpp"

namespace biq {
namespace {

struct Case {
  int m, n, b;
  unsigned mu, bits;
};

void expect_matches_reference(const Case& c, const BiqGemmOptions& opt_in,
                              ExecContext* ctx = nullptr, float tol = 2e-3f) {
  Rng rng(static_cast<std::uint64_t>(c.m) * 1315423911u + c.n * 2654435761u +
          c.b * 97 + c.mu * 13 + c.bits);
  Matrix w = Matrix::random_normal(c.m, c.n, rng);
  const BinaryCodes codes = quantize_greedy(w, c.bits);
  Matrix x = Matrix::random_normal(c.n, c.b, rng);

  Matrix expected(c.m, c.b), actual(c.m, c.b);
  gemm_codes_ref(codes, x, expected);

  BiqGemmOptions opt = opt_in;
  opt.mu = c.mu;
  actual.fill(777.0f);  // stale data must be overwritten
  if (ctx != nullptr) {
    biqgemm(codes, x, actual, opt, *ctx);
  } else {
    biqgemm(codes, x, actual, opt);
  }
  EXPECT_TRUE(allclose(actual, expected, tol, tol))
      << "m=" << c.m << " n=" << c.n << " b=" << c.b << " mu=" << c.mu
      << " bits=" << c.bits << " maxdiff=" << max_abs_diff(actual, expected);
}

class BiqGemmSweep : public ::testing::TestWithParam<Case> {};

TEST_P(BiqGemmSweep, MatchesReferenceSerial) {
  expect_matches_reference(GetParam(), {});
}

TEST_P(BiqGemmSweep, MatchesReferenceThreaded) {
  ThreadPool pool(4);
  ExecContext ctx(&pool);
  expect_matches_reference(GetParam(), {}, &ctx);
}

TEST_P(BiqGemmSweep, MatchesReferenceWithMmBuilder) {
  BiqGemmOptions opt;
  opt.use_dp_builder = false;
  expect_matches_reference(GetParam(), opt);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BiqGemmSweep,
    ::testing::Values(
        // vector batch path (b >= 8), mu = 8 fast path
        Case{64, 64, 8, 8, 1}, Case{64, 64, 16, 8, 2}, Case{130, 96, 8, 8, 3},
        // partial batch tiles (b % 8 != 0)
        Case{32, 64, 9, 8, 1}, Case{32, 64, 12, 8, 2}, Case{17, 40, 3, 8, 1},
        // ragged input size (n % mu != 0)
        Case{48, 61, 8, 8, 1}, Case{48, 61, 10, 8, 2}, Case{25, 13, 9, 4, 1},
        // non-default mu, narrow and wide keys
        Case{40, 48, 8, 3, 1}, Case{40, 48, 8, 6, 2}, Case{40, 48, 9, 11, 1},
        Case{24, 36, 8, 1, 1}, Case{24, 34, 8, 16, 1},
        // single row / tiny shapes
        Case{1, 8, 8, 8, 1}, Case{2, 3, 2, 2, 2}, Case{8, 8, 8, 8, 1},
        // GEMV delegation (b == 1)
        Case{64, 64, 1, 8, 1}, Case{130, 70, 1, 8, 3}, Case{64, 64, 1, 11, 2},
        // larger mixed case crossing several tiles
        Case{256, 192, 40, 8, 2},
        // 16-lane (AVX-512) tiles: exact, plus mixed 16+8+scalar tails
        Case{64, 64, 16, 8, 1}, Case{96, 80, 32, 8, 2}, Case{64, 61, 27, 8, 1},
        Case{48, 40, 19, 8, 3}, Case{33, 48, 16, 5, 2}));

TEST(BiqGemm, UnscaledPlaneMatchesBinaryReference) {
  Rng rng(101);
  BinaryMatrix plane = BinaryMatrix::random(50, 72, rng);
  Matrix x = Matrix::random_normal(72, 10, rng);
  Matrix expected(50, 10), actual(50, 10);
  gemm_binary_ref(plane, x, expected);
  const BiqGemm kernel(plane, {});
  kernel.run(x, actual);
  EXPECT_TRUE(allclose(actual, expected, 1e-3f, 1e-3f));
  EXPECT_EQ(kernel.bits(), 1u);
}

TEST(BiqGemm, BasicOracleMatchesReference) {
  Rng rng(103);
  Matrix w = Matrix::random_normal(30, 41, rng);
  const BinaryCodes codes = quantize_greedy(w, 2);
  Matrix x = Matrix::random_normal(41, 5, rng);
  Matrix expected(30, 5), actual(30, 5);
  gemm_codes_ref(codes, x, expected);
  biqgemm_basic(codes, x, actual, 8);
  EXPECT_TRUE(allclose(actual, expected, 1e-3f, 1e-3f));
}

TEST(BiqGemm, TinyLutTileForcesManyTilePasses) {
  Case c{96, 128, 16, 8, 2};
  BiqGemmOptions opt;
  opt.tables_per_tile = 1;  // worst-case tiling still must be correct
  expect_matches_reference(c, opt);
  opt.tables_per_tile = 3;
  expect_matches_reference(c, opt);
}

TEST(BiqGemm, PackedWeightBytesMatchesKeyStorage) {
  Rng rng(109);
  Matrix w = Matrix::random_normal(64, 256, rng);
  const BinaryCodes codes = quantize_greedy(w, 3);
  const BiqGemm kernel(codes, {});
  // 3 planes of 64 x 32 byte keys + 3 * 64 fp32 scales.
  EXPECT_EQ(kernel.packed_weight_bytes(), 3u * (64u * 32u) + 3u * 64u * 4u);
}

TEST(BiqGemm, RejectsShapeMismatch) {
  Rng rng(113);
  Matrix w = Matrix::random_normal(8, 16, rng);
  const BinaryCodes codes = quantize_greedy(w, 1);
  const BiqGemm kernel(codes, {});
  Matrix x(15, 2), y(8, 2);
  EXPECT_THROW(kernel.run(x, y), std::invalid_argument);
  Matrix x2(16, 2), y2(7, 2);
  EXPECT_THROW(kernel.run(x2, y2), std::invalid_argument);
}

// Caller codes reach the engine verbatim (EngineConfig::codes), so the
// constructor is the only place a malformed shape can be caught before
// the query loop indexes past a plane or a scale vector.
TEST(BiqGemm, RejectsPlaneShapeMismatch) {
  Rng rng(139);
  const BinaryCodes good = quantize_greedy(Matrix::random_normal(8, 16, rng), 2);
  BinaryCodes taller = good;
  taller.rows = 9;  // planes stay 8 x 16
  taller.alphas.assign(2, std::vector<float>(9, 1.0f));
  EXPECT_THROW(BiqGemm(taller, {}), std::invalid_argument);
  BinaryCodes wider = good;
  wider.cols = 24;
  EXPECT_THROW(BiqGemm(wider, {}), std::invalid_argument);
  BinaryCodes mixed = good;
  mixed.planes[1] = BinaryMatrix(8, 15);
  EXPECT_THROW(BiqGemm(mixed, {}), std::invalid_argument);
}

TEST(BiqGemm, RejectsWrongAlphaVectorCount) {
  Rng rng(149);
  BinaryCodes codes = quantize_greedy(Matrix::random_normal(8, 16, rng), 2);
  codes.alphas.pop_back();
  EXPECT_THROW(BiqGemm(codes, {}), std::invalid_argument);
  codes.alphas.clear();  // empty = unit scales, still valid
  EXPECT_NO_THROW(BiqGemm(codes, {}));
}

TEST(BiqGemm, RejectsShortAlphaVector) {
  Rng rng(151);
  BinaryCodes codes = quantize_greedy(Matrix::random_normal(8, 16, rng), 2);
  codes.alphas[1].resize(7);
  EXPECT_THROW(BiqGemm(codes, {}), std::invalid_argument);
}

TEST(BiqGemm, RejectsInvalidMu) {
  Rng rng(127);
  Matrix w = Matrix::random_normal(4, 8, rng);
  const BinaryCodes codes = quantize_greedy(w, 1);
  BiqGemmOptions opt;
  opt.mu = 0;
  EXPECT_THROW(BiqGemm(codes, opt), std::invalid_argument);
  opt.mu = 17;
  EXPECT_THROW(BiqGemm(codes, opt), std::invalid_argument);
}

TEST(BiqGemm, EmptyBatchIsNoop) {
  Rng rng(131);
  Matrix w = Matrix::random_normal(4, 8, rng);
  const BinaryCodes codes = quantize_greedy(w, 1);
  const BiqGemm kernel(codes, {});
  Matrix x(8, 0), y(4, 0);
  EXPECT_NO_THROW(kernel.run(x, y));
}

TEST(BiqGemm, ReusableAcrossManyInputs) {
  Rng rng(137);
  Matrix w = Matrix::random_normal(40, 56, rng);
  const BinaryCodes codes = quantize_greedy(w, 2);
  const BiqGemm kernel(codes, {});
  for (int rep = 0; rep < 4; ++rep) {
    Matrix x = Matrix::random_normal(56, 6, rng);
    Matrix expected(40, 6), actual(40, 6);
    gemm_codes_ref(codes, x, expected);
    kernel.run(x, actual);
    EXPECT_TRUE(allclose(actual, expected, 1e-3f, 1e-3f));
  }
}

}  // namespace
}  // namespace biq
