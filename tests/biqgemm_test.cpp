// The central equivalence suite: every BiQGEMM configuration must
// reproduce the reference Eq.-2 result exactly (up to fp reassociation).
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "core/biqgemm.hpp"
#include "core/mu_select.hpp"
#include "engine/dispatch.hpp"
#include "gemm/gemm_ref.hpp"
#include "quant/greedy.hpp"
#include "quant/grouped.hpp"
#include "threading/thread_pool.hpp"
#include "util/aligned_buffer.hpp"

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
    BiqGemm(codes, opt).run(x, actual, *ctx);
  } else {
    BiqGemm(codes, opt).run(x, actual);
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
        // zero-padded narrow and last batch tiles (b % 8 != 0)
        Case{32, 64, 9, 8, 1}, Case{32, 64, 12, 8, 2}, Case{17, 40, 3, 8, 1},
        // ragged input size (n % mu != 0)
        Case{48, 61, 8, 8, 1}, Case{48, 61, 10, 8, 2}, Case{25, 13, 9, 4, 1},
        // non-default mu, narrow and wide keys
        Case{40, 48, 8, 3, 1}, Case{40, 48, 8, 6, 2}, Case{40, 48, 9, 11, 1},
        Case{24, 36, 8, 1, 1}, Case{24, 34, 8, 16, 1},
        // single row / tiny shapes
        Case{1, 8, 8, 8, 1}, Case{2, 3, 2, 2, 2}, Case{8, 8, 8, 8, 1},
        // batch 1: one one-lane tile
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

// A LUT tile taller than the layer is one chunk whatever the option
// asks for, so a huge tables_per_tile (which must not wrap the scratch
// sizes derived from it) gives the default tiling's bits on a layer
// narrower than one default tile (3 tables at mu 8): the one-lane and
// full batch-tile widths, fused and prepared.
TEST(BiqGemm, HugeTablesPerTileMatchesDefaultTilingBitwise) {
  constexpr std::size_t m = 40, n = 24;
  Rng rng(157);
  const BinaryCodes codes =
      quantize_greedy(Matrix::random_normal(m, n, rng), 2);
  BiqGemmOptions huge;
  huge.tables_per_tile = std::size_t{1} << 60;
  const BiqGemm by_default(codes, {});
  const BiqGemm by_huge(codes, huge);
  for (const std::size_t b :
       {std::size_t{1}, std::size_t{5}, std::size_t{33}}) {
    const Matrix x = Matrix::random_normal(n, b, rng);
    for (const bool prepared : {false, true}) {
      const auto run = [&](const BiqGemm& engine) {
        ExecContext ctx;  // fresh arenas: scratch sized by this plan alone
        const auto plan = engine.plan(b, ctx);
        Matrix y(m, b);
        if (prepared) {
          AlignedBuffer<float> storage(plan->prep_floats());
          PrepHandle prep(storage.data(), storage.size());
          plan->prepare(x.view(), prep);
          plan->run(prep, y.view());
        } else {
          plan->run(x.view(), y.view());
        }
        return y;
      };
      const Matrix actual = run(by_huge);
      const Matrix expected = run(by_default);
      for (std::size_t c = 0; c < b; ++c) {
        EXPECT_EQ(std::memcmp(actual.col(c), expected.col(c),
                              m * sizeof(float)),
                  0)
            << "b=" << b << (prepared ? " prepared" : " fused") << " col "
            << c;
      }
    }
  }
}

TEST(BiqGemm, PackedWeightBytesMatchesKeyStorage) {
  Rng rng(109);
  Matrix w = Matrix::random_normal(64, 256, rng);
  const BinaryCodes codes = quantize_greedy(w, 3);
  const BiqGemm kernel(codes, {});
  // 3 planes of 64 x 256 key bits and their load slack + 3 * 64 fp32
  // scales.
  EXPECT_EQ(kernel.packed_weight_bytes(),
            3u * (64u * 256u / 8u + kKeySlackBytes) + 3u * 64u * 4u);
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

// An unset mu is picked once, at set-up, from the engine's rows and bit
// planes: every context plans the same mu (so the same bits per plane),
// and each plane's outputs are bitwise equal at 1, 2 and 4 threads.
TEST(BiqGemm, AutomaticMuIsAnEnginePropertyNotAContextOne) {
  Rng rng(137);
  const Matrix w = Matrix::random_normal(512, 96, rng);
  const BinaryCodes codes = quantize_greedy(w, 2);
  const BiqGemm engine(codes);
  EXPECT_EQ(engine.mu(), select_lut_unit(512, 2));
  EXPECT_EQ(engine.mu(), 6u);
  EXPECT_EQ(engine.options().mu, std::optional<unsigned>(6u));
  ThreadPool pool2(2), pool4(4);
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!engine::isa_available(isa)) continue;
    for (const std::size_t b : {1u, 17u, 33u}) {
      const Matrix x = Matrix::random_normal(96, b, rng);
      Matrix y1(512, b);
      ExecContext serial(nullptr, isa);
      const auto plan = engine.plan(b, serial);
      EXPECT_EQ(plan->prep_key().p0, engine.mu());
      plan->run(x, y1);
      for (ThreadPool* pool : {&pool2, &pool4}) {
        ExecContext ctx(pool, isa);
        Matrix y(512, b);
        engine.plan(b, ctx)->run(x, y);
        EXPECT_EQ(std::memcmp(y.data(), y1.data(), y.size() * sizeof(float)),
                  0)
            << engine::select_plane(isa).isa << " b=" << b << " workers "
            << ctx.worker_count();
      }
    }
  }
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

// Batch tiles narrower than the plane's query width are zero-padded to
// it, and every lane runs the same arithmetic, so in a batch-tile plan
// (b >= 2) a column's output bits must not depend on the batch width it
// ran at. Each width 2..47 is checked against the same columns of a
// b = 48 run: per-row and grouped scales, fused run and prepare +
// run(prep), with and without a fused bias + GELU + residual epilogue,
// at 1, 3 and 4 workers. At 3 workers a one-tile batch splits the
// m = 200 rows into ranges starting at rows 66 and 133, so the query's
// row pairs also start at an odd row.
TEST(BiqGemm, ColumnBitsDoNotDependOnBatchWidth) {
  constexpr std::size_t m = 200, n = 300, wide = 48;
  Rng rng(149);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const BiqGemm per_row(quantize_greedy(w, 2), {});
  const BiqGemm grouped(quantize_greedy_grouped(w, 2, 64), {});
  const Matrix x = Matrix::random_normal(n, wide, rng);
  const Matrix res = Matrix::random_normal(m, wide, rng);
  std::vector<float> bias(m);
  fill_normal(rng, bias.data(), m);

  ThreadPool pool3(3), pool4(4);
  ExecContext serial;
  ExecContext three(&pool3);
  ExecContext four(&pool4);
  for (ExecContext* ctx : {&serial, &three, &four}) {
    for (const BiqGemm* engine : {&per_row, &grouped}) {
      for (const bool with_ep : {false, true}) {
        Epilogue ep;
        if (with_ep) {
          ep.bias = bias.data();
          ep.act = EpilogueAct::kGelu;
          ep.residual = true;
        }
        const auto run = [&](std::size_t b, bool prepared) {
          const auto plan = engine->plan(b, *ctx, ep);
          const ConstMatrixView xb = x.col_block(0, b);
          const ConstMatrixView rb = res.col_block(0, b);
          Matrix y(m, b);
          if (prepared) {
            AlignedBuffer<float> storage(plan->prep_floats());
            PrepHandle prep(storage.data(), storage.size());
            plan->prepare(xb, prep);
            plan->run(prep, y.view());
          } else {
            with_ep ? plan->run(xb, y.view(), rb) : plan->run(xb, y.view());
          }
          return y;
        };
        const Matrix ref = run(wide, /*prepared=*/false);
        for (const bool prepared : {false, true}) {
          // A residual plan has no prepared form: it runs fused only.
          if (prepared && with_ep) continue;
          std::size_t differing = 0, checked = 0;
          for (std::size_t b = 2; b < wide; ++b) {
            const Matrix y = run(b, prepared);
            for (std::size_t c = 0; c < b; ++c, ++checked) {
              differing += std::memcmp(y.col(c), ref.col(c),
                                       m * sizeof(float)) != 0;
            }
          }
          EXPECT_EQ(differing, 0u)
              << engine->name() << (prepared ? " prepared" : " fused")
              << (with_ep ? " +epilogue" : "") << ", "
              << ctx->worker_count() << " worker(s): " << differing << " of "
              << checked << " columns differ from the b = " << wide << " run";
        }
      }
    }
  }
}

}  // namespace
}  // namespace biq
