// Tests for the GemmEngine / EngineRegistry layer and the runtime ISA
// dispatch: every registered engine approximates the fp32 reference on
// random shapes (including the b == 1 GEMV path), the exact-arithmetic
// engines agree with each other, the scalar and vector kernel planes
// build bitwise-consistent LUTs from one binary, and a plane the build
// or the host lacks is refused when a plan is compiled on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/biqgemm.hpp"
#include "core/key_matrix.hpp"
#include "core/mu_select.hpp"
#include "engine/dispatch.hpp"
#include "engine/registry.hpp"
#include "gemm/gemm_blocked.hpp"
#include "gemm/gemm_ref.hpp"
#include "quant/grouped.hpp"
#include "quant/quantize.hpp"
#include "util/aligned_buffer.hpp"

namespace biq {
namespace {

constexpr const char* kBuiltins[] = {
    "biqgemm", "biqgemm-grouped", "blocked", "naive",
    "int8",    "unpack",          "xnor",    "tmac-lut"};

TEST(EngineRegistry, ListsAllBuiltinEngines) {
  EngineRegistry& reg = EngineRegistry::instance();
  EXPECT_GE(reg.size(), std::size(kBuiltins));
  for (const char* name : kBuiltins) {
    EXPECT_TRUE(reg.contains(name)) << name;
    const EngineSpec* spec = reg.find(name);
    ASSERT_NE(spec, nullptr);
    EXPECT_FALSE(spec->summary.empty());
    EXPECT_TRUE(spec->make != nullptr);
  }
  EXPECT_FALSE(reg.contains("no-such-engine"));
}

TEST(EngineRegistry, MakeUnknownEngineThrowsWithLineup) {
  Rng rng(1);
  const Matrix w = Matrix::random_normal(8, 8, rng);
  try {
    (void)make_engine("no-such-engine", w);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message should help: it lists what IS registered.
    EXPECT_NE(std::string(e.what()).find("biqgemm"), std::string::npos);
  }
}

/// Output tolerance (relative Frobenius) per engine at the test config:
/// 4-bit weights for the quantized engines, 4-bit activations for xnor.
/// Dense engines must match the oracle to float rounding; quantized
/// engines to their quantization error.
double tolerance_for(const std::string& name) {
  static const std::map<std::string, double> tol = {
      {"naive", 1e-5},   {"blocked", 1e-5},        {"int8", 0.05},
      {"biqgemm", 0.30}, {"biqgemm-grouped", 0.30}, {"unpack", 0.30},
      {"xnor", 0.60},    {"tmac-lut", 0.30}};
  const auto it = tol.find(name);
  return it != tol.end() ? it->second : 0.30;
}

TEST(EngineRegistry, EveryEngineMatchesReferenceAcrossShapes) {
  EngineConfig cfg;
  cfg.weight_bits = 4;
  cfg.activation_bits = 4;

  for (const auto& [m, n] :
       {std::tuple{33, 17}, std::tuple{64, 64}, std::tuple{96, 48}}) {
    Rng rng(static_cast<std::uint64_t>(m * 131 + n));
    const Matrix w = Matrix::random_normal(m, n, rng, 0.0f, 0.5f);

    for (const std::string& name : EngineRegistry::instance().names()) {
      const std::unique_ptr<GemmEngine> engine = make_engine(name, w, cfg);
      EXPECT_EQ(engine->rows(), static_cast<std::size_t>(m));
      EXPECT_EQ(engine->cols(), static_cast<std::size_t>(n));
      EXPECT_EQ(engine->name(), name);
      EXPECT_GT(engine->weight_bytes(), 0u);

      // b == 1 exercises kernel-specific GEMV fast paths.
      for (const std::size_t b : {std::size_t{1}, std::size_t{5},
                                  std::size_t{8}, std::size_t{17}}) {
        Matrix x = Matrix::random_normal(n, b, rng);
        Matrix expected(m, b), actual(m, b);
        gemm_ref(w, x, expected);
        engine->run(x, actual);
        EXPECT_LT(rel_fro_error(actual, expected), tolerance_for(name))
            << name << " m=" << m << " n=" << n << " b=" << b;
      }
    }
  }
}

// biqgemm-grouped cuts scale groups of four tables, 4 * mu inputs, with
// mu resolved by the engine's own rule from rows and bits first, so its
// groups always split into whole tables whichever mu the rule picks
// (6 at 512 rows, 8 at 2048 rows and 2 bits).
TEST(EngineRegistry, GroupedFactoryCutsGroupsForTheAutomaticMu) {
  EngineConfig cfg;
  cfg.weight_bits = 2;
  for (const std::size_t m : {512u, 2048u}) {
    constexpr std::size_t n = 100;
    Rng rng(m + 3);
    const Matrix w = Matrix::random_normal(m, n, rng);
    const auto engine = make_engine("biqgemm-grouped", w, cfg);
    const auto& biq = dynamic_cast<const BiqGemm&>(*engine);
    const unsigned mu = select_lut_unit(m, cfg.weight_bits);
    EXPECT_EQ(biq.mu(), mu) << "m=" << m;
    EXPECT_EQ(biq.group_size(), 4 * mu) << "m=" << m;
    const GroupedBinaryCodes codes =
        quantize_greedy_grouped(w, cfg.weight_bits, 4 * mu);
    for (const std::size_t b : {std::size_t{1}, std::size_t{17}}) {
      const Matrix x = Matrix::random_normal(n, b, rng);
      Matrix expected(m, b), actual(m, b);
      gemm_ref(codes.dequantize(), x, expected);
      engine->run(x, actual);
      EXPECT_TRUE(allclose(actual, expected, 2e-3f, 2e-3f))
          << "m=" << m << " b=" << b
          << " maxdiff=" << max_abs_diff(actual, expected);
    }
  }
}

TEST(EngineRegistry, ExactQuantizedEnginesAgreeWithEachOther) {
  // biqgemm and unpack both compute sum_q alpha_q o (B_q . X) exactly
  // (same deterministic greedy codes), just through different data
  // paths: lookups vs Algorithm-3 unpack. Their outputs must agree to
  // accumulation rounding, far tighter than the quantization error.
  EngineConfig cfg;
  cfg.weight_bits = 3;
  Rng rng(7);
  const Matrix w = Matrix::random_normal(70, 41, rng);
  const auto lut_engine = make_engine("biqgemm", w, cfg);
  const auto unpack_engine = make_engine("unpack", w, cfg);

  for (const std::size_t b : {std::size_t{1}, std::size_t{9}}) {
    Matrix x = Matrix::random_normal(41, b, rng);
    Matrix y_lut(70, b), y_unpack(70, b);
    lut_engine->run(x, y_lut);
    unpack_engine->run(x, y_unpack);
    EXPECT_TRUE(allclose(y_lut, y_unpack, 1e-4f, 1e-4f)) << "b=" << b;
  }
}

TEST(EngineRegistry, PrequantizedCodesSkipFactoryQuantization) {
  Rng rng(11);
  const Matrix w = Matrix::random_normal(48, 40, rng);
  EngineConfig from_w;
  from_w.weight_bits = 3;
  const BinaryCodes codes = quantize(w, 3, QuantMethod::kGreedy);
  EngineConfig from_codes;
  from_codes.codes = &codes;

  Matrix x = Matrix::random_normal(40, 6, rng);
  for (const char* name : {"biqgemm", "unpack", "xnor"}) {
    Matrix y_w(48, 6), y_codes(48, 6);
    make_engine(name, w, from_w)->run(x, y_w);
    make_engine(name, w, from_codes)->run(x, y_codes);
    // Same deterministic codes either way => identical engines.
    EXPECT_TRUE(allclose(y_w, y_codes, 0.0f, 0.0f)) << name;
  }
}

TEST(EngineRegistry, GemvPathMatchesBatchedColumn) {
  EngineConfig cfg;
  cfg.weight_bits = 2;
  Rng rng(19);
  const Matrix w = Matrix::random_normal(64, 56, rng);
  const auto engine = make_engine("biqgemm", w, cfg);

  Matrix x = Matrix::random_normal(56, 8, rng);
  Matrix y_batched(64, 8);
  engine->run(x, y_batched);

  Matrix x0(56, 1), y0(64, 1);
  for (std::size_t i = 0; i < 56; ++i) x0(i, 0) = x(i, 0);
  engine->run(x0, y0);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(y0(i, 0), y_batched(i, 0), 1e-4f) << "row " << i;
  }
}

TEST(EngineRegistry, OneRegistrationAddsABackendEverywhere) {
  EngineRegistry& reg = EngineRegistry::instance();
  if (!reg.contains("naive-alias")) {
    reg.add({"naive-alias", "test-only alias backend", /*quantized=*/false,
             [](const Matrix& w, const EngineConfig&) {
               return std::make_unique<NaiveGemm>(w);
             }});
  }
  Rng rng(3);
  const Matrix w = Matrix::random_normal(20, 12, rng);
  Matrix x = Matrix::random_normal(12, 4, rng);
  Matrix expected(20, 4), actual(20, 4);
  gemm_ref(w, x, expected);
  make_engine("naive-alias", w)->run(x, actual);
  EXPECT_TRUE(allclose(actual, expected, 1e-4f, 1e-5f));

  EXPECT_THROW(reg.add({"naive-alias", "dup", false,
                        [](const Matrix& w2, const EngineConfig&) {
                          return std::make_unique<NaiveGemm>(w2);
                        }}),
               std::invalid_argument);
}

TEST(EngineRegistry, EveryEngineIsBitwiseDeterministicAcrossThreadCounts) {
  // The tile partitioner hands every engine units of identical
  // arithmetic, so output must not depend on the worker count — 1-thread
  // and N-thread runs of the same engine instance are bitwise equal.
  EngineConfig cfg;
  cfg.weight_bits = 3;
  cfg.activation_bits = 2;
  Rng rng(41);
  const Matrix w = Matrix::random_normal(97, 83, rng, 0.0f, 0.5f);

  for (const std::string& name : EngineRegistry::instance().names()) {
    const std::unique_ptr<GemmEngine> engine = make_engine(name, w, cfg);
    // b == 1 exercises the GEMV/row-parallel splits, the larger batches
    // the batch-tile splits.
    for (const std::size_t b : {std::size_t{1}, std::size_t{7},
                                std::size_t{33}}) {
      Matrix x = Matrix::random_normal(83, b, rng);
      Matrix y_one(97, b);
      {
        ThreadPool pool(1);
        ExecContext ctx(&pool);
        engine->run(x, y_one, ctx);
      }
      for (unsigned threads : {2u, 4u}) {
        ThreadPool pool(threads);
        ExecContext ctx(&pool);
        Matrix y_n(97, b);
        y_n.fill(-123.0f);
        engine->run(x, y_n, ctx);
        EXPECT_EQ(max_abs_diff(y_one, y_n), 0.0f)
            << name << " b=" << b << " threads=" << threads;
      }
    }
  }
}

TEST(EngineRegistry, NonFiniteInputPoisonsOnlyItsOwnColumn) {
  // One NaN or Inf in an activation column makes that column's whole
  // output non-finite in every engine — quantized activation grids
  // included, which must not silently drop the bad entry — and leaves
  // every other column bitwise what it would be without the bad entry.
  EngineConfig cfg;
  cfg.weight_bits = 2;
  cfg.activation_bits = 2;
  Rng rng(43);
  const Matrix w = Matrix::random_normal(16, 32, rng, 0.0f, 0.5f);
  const float bad_values[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity()};

  for (const std::string& name : EngineRegistry::instance().names()) {
    const std::unique_ptr<GemmEngine> engine = make_engine(name, w, cfg);
    for (const float bad : bad_values) {
      for (const std::size_t b : {std::size_t{1}, std::size_t{2}}) {
        const Matrix clean = Matrix::random_normal(32, b, rng);
        Matrix x = clean;
        x(5, 0) = bad;
        ExecContext ctx;
        const std::unique_ptr<GemmPlan> plan = engine->plan(b, ctx);
        Matrix y(16, b), y_clean(16, b);
        plan->run(x, y);
        plan->run(clean, y_clean);
        for (std::size_t i = 0; i < 16; ++i) {
          EXPECT_FALSE(std::isfinite(y(i, 0)))
              << name << " bad=" << bad << " b=" << b << " row " << i;
        }
        for (std::size_t c = 1; c < b; ++c) {
          for (std::size_t i = 0; i < 16; ++i) {
            EXPECT_EQ(std::memcmp(&y(i, c), &y_clean(i, c), sizeof(float)), 0)
                << name << " bad=" << bad << " b=" << b << " (" << i << ","
                << c << ")";
          }
        }
      }
    }
  }
}

// ----------------------------------------------------- planned execution

TEST(GemmPlan, ExistsForEveryEngineAndMatchesLegacyRunBitwise) {
  // plan() -> plan->run() is the prepared hot path; the legacy
  // run(x, y, ctx) adapter must stay bitwise identical to it for every
  // registered engine, at 1 and N workers, across the GEMV and batched
  // regimes — reusing one plan across repeated runs included.
  EngineConfig cfg;
  cfg.weight_bits = 3;
  cfg.activation_bits = 2;
  Rng rng(61);
  const Matrix w = Matrix::random_normal(71, 58, rng, 0.0f, 0.5f);

  for (const std::string& name : EngineRegistry::instance().names()) {
    const std::unique_ptr<GemmEngine> engine = make_engine(name, w, cfg);
    for (const std::size_t b : {std::size_t{1}, std::size_t{9},
                                std::size_t{24}}) {
      Matrix x = Matrix::random_normal(58, b, rng);
      for (unsigned threads : {1u, 3u}) {
        ThreadPool legacy_pool(threads);
        ExecContext legacy_ctx(&legacy_pool);
        Matrix y_legacy(71, b);
        engine->run(x, y_legacy, legacy_ctx);

        ThreadPool plan_pool(threads);
        ExecContext plan_ctx(&plan_pool);
        const std::unique_ptr<GemmPlan> plan = engine->plan(b, plan_ctx);
        EXPECT_EQ(plan->rows(), 71u);
        EXPECT_EQ(plan->cols(), 58u);
        EXPECT_EQ(plan->batch(), b);
        EXPECT_EQ(plan->engine_name(), engine->name());
        EXPECT_EQ(&plan->context(), &plan_ctx);

        Matrix y_planned(71, b);
        for (int rep = 0; rep < 3; ++rep) {
          y_planned.fill(-321.0f);
          plan->run(x, y_planned);
          EXPECT_EQ(max_abs_diff(y_legacy, y_planned), 0.0f)
              << name << " b=" << b << " threads=" << threads
              << " rep=" << rep;
        }
      }
    }
  }
}

TEST(GemmPlan, RunRejectsShapeAndLdMismatchesWithDims) {
  // Shape/ld errors at the API boundary must throw std::invalid_argument
  // and name the offending dims (they used to be silent UB for strided
  // callers who got the window wrong).
  EngineConfig cfg;
  cfg.weight_bits = 2;
  Rng rng(67);
  const Matrix w = Matrix::random_normal(24, 16, rng);
  const auto engine = make_engine("biqgemm", w, cfg);
  ExecContext ctx;
  const std::unique_ptr<GemmPlan> plan = engine->plan(4, ctx);

  Matrix x(16, 4), y(24, 4);
  plan->run(x, y);  // correct shapes pass

  const auto expect_throw_with = [&](ConstMatrixView bad_x, MatrixView bad_y,
                                     const char* needle) {
    try {
      plan->run(bad_x, bad_y);
      FAIL() << "expected std::invalid_argument mentioning " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("biqgemm"), std::string::npos)
          << e.what();
    }
  };

  Matrix x_short(15, 4), x_wide(16, 5), y_short(23, 4);
  expect_throw_with(x_short, y, "15x4");        // wrong input features
  expect_throw_with(x_wide, y, "16x5");         // batch != planned batch
  expect_throw_with(x, y_short, "23x4");        // wrong output features
  // Malformed leading dimensions (ld < rows) can address out of bounds.
  expect_throw_with(ConstMatrixView(x.data(), 16, 4, 8), y, "ld 8");
  expect_throw_with(x, MatrixView(y.data(), 24, 4, 11), "ld 11");

  // The legacy adapter goes through the same gate.
  EXPECT_THROW(engine->run(x_short, y, ctx), std::invalid_argument);
  EXPECT_THROW(engine->run(x, y_short, ctx), std::invalid_argument);
}

TEST(GemmPlan, StridedViewsMatchDenseBitwiseAndRespectWindowBounds) {
  // Engines consume {data, rows, cols, ld} views end to end: a window of
  // a larger buffer must produce bitwise the dense result and never
  // touch memory outside its window.
  EngineConfig cfg;
  cfg.weight_bits = 3;
  cfg.activation_bits = 2;
  Rng rng(71);
  const std::size_t m = 37, n = 29, b = 9;
  const Matrix w = Matrix::random_normal(m, n, rng, 0.0f, 0.5f);
  const Matrix x = Matrix::random_normal(n, b, rng);

  // Embed x and y as interior windows of larger buffers.
  Matrix x_big(n + 13, b + 3, /*zero_fill=*/false);
  x_big.fill(77.0f);
  for (std::size_t c = 0; c < b; ++c) {
    for (std::size_t i = 0; i < n; ++i) x_big(5 + i, 2 + c) = x(i, c);
  }
  const ConstMatrixView xv = x_big.block(5, n, 2, b);

  for (const std::string& name : EngineRegistry::instance().names()) {
    const std::unique_ptr<GemmEngine> engine = make_engine(name, w, cfg);
    Matrix y_dense(m, b);
    engine->run(x, y_dense);

    Matrix y_big(m + 11, b + 4, /*zero_fill=*/false);
    y_big.fill(-55.0f);
    const MatrixView yv = y_big.block(3, m, 1, b);
    ExecContext ctx;
    engine->plan(b, ctx)->run(xv, yv);

    for (std::size_t c = 0; c < b; ++c) {
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_EQ(yv(i, c), y_dense(i, c)) << name << " (" << i << "," << c
                                           << ")";
      }
    }
    // Guard band: everything outside the window is untouched.
    for (std::size_t c = 0; c < y_big.cols(); ++c) {
      for (std::size_t i = 0; i < y_big.rows(); ++i) {
        const bool inside = i >= 3 && i < 3 + m && c >= 1 && c < 1 + b;
        if (!inside) {
          ASSERT_EQ(y_big(i, c), -55.0f)
              << name << " wrote outside its window at (" << i << "," << c
              << ")";
        }
      }
    }
  }
}

// ------------------------------------------------------- runtime dispatch

TEST(Dispatch, ScalarPlaneAlwaysAvailable) {
  EXPECT_TRUE(engine::isa_compiled(KernelIsa::kScalar));
  EXPECT_TRUE(engine::isa_available(KernelIsa::kScalar));
  EXPECT_STREQ(engine::select_plane(KernelIsa::kScalar).isa, "scalar");
  // Auto always resolves to something runnable.
  const engine::KernelPlane& k = engine::select_plane(KernelIsa::kAuto);
  EXPECT_GT(k.biq.query_lanes, 0u);
}

// Engines carry no kernel plane, so every dispatched engine builds
// whatever the host runs; a plane the build or the CPU lacks is refused
// when a plan is compiled on it, before any call into a missing table.
TEST(Dispatch, UnavailablePlaneThrowsInsteadOfCrashing) {
  Rng rng(5);
  const Matrix w = Matrix::random_normal(16, 16, rng);
  bool refused = false;
  for (const KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (engine::isa_available(isa)) continue;
    refused = true;
    EXPECT_THROW((void)engine::select_plane(isa), std::runtime_error);
    for (const char* name : {"biqgemm", "blocked", "tmac-lut"}) {
      std::unique_ptr<GemmEngine> eng;
      ASSERT_NO_THROW(eng = make_engine(name, w)) << name;
      ExecContext ctx(nullptr, isa);
      EXPECT_THROW((void)eng->plan(4, ctx), std::runtime_error) << name;
    }
  }
  if (!refused) {
    GTEST_SKIP() << "every vector plane is available here; nothing to refuse";
  }
}

TEST(Dispatch, PlanTilesLanesComeFromDispatchedPlane) {
  // Every batch tile runs at its plane's full width: a narrower batch
  // (or the last tile of a wider one) is zero-padded, never clamped, so
  // the prep artifact holds whole tiles. Batch 1 is one tile of one
  // lane, for per-row and grouped scales alike.
  Rng rng(7);
  const Matrix w = Matrix::random_normal(16, 40, rng);
  const BinaryCodes codes = quantize(w, 2, QuantMethod::kGreedy);
  const GroupedBinaryCodes grouped = quantize_greedy_grouped(w, 2, 16);
  const BiqGemm per_row(codes), by_group(grouped);
  for (const KernelIsa isa : {KernelIsa::kAuto, KernelIsa::kScalar,
                              KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (isa != KernelIsa::kAuto && !engine::isa_available(isa)) continue;
    const std::size_t lanes = engine::select_plane(isa).biq.query_lanes;
    ExecContext ctx(nullptr, isa);
    for (const BiqGemm* engine : {&per_row, &by_group}) {
      const std::size_t table = std::size_t{1} << engine->mu();
      const std::size_t tables = table_count(40, engine->mu());
      EXPECT_EQ(engine->plan(1, ctx)->prep_floats(), tables * table)
          << engine->name();
      EXPECT_EQ(engine->plan(3, ctx)->prep_floats(), tables * table * lanes);
      EXPECT_EQ(engine->plan(lanes, ctx)->prep_floats(),
                tables * table * lanes);
      EXPECT_EQ(engine->plan(lanes + 1, ctx)->prep_floats(),
                tables * table * 2 * lanes);
    }
  }
}

TEST(Dispatch, ScalarAndAvx2PlanesAreBitwiseConsistent) {
  if (!engine::isa_available(KernelIsa::kAvx2)) {
    GTEST_SKIP() << "avx2 plane not available on this host/build";
  }
  EXPECT_STREQ(engine::select_plane(KernelIsa::kScalar).isa, "scalar");
  EXPECT_STREQ(engine::select_plane(KernelIsa::kAvx2).isa, "avx2");
  const engine::BiqKernels& scalar =
      engine::select_plane(KernelIsa::kScalar).biq;
  const engine::BiqKernels& avx2 = engine::select_plane(KernelIsa::kAvx2).biq;
  EXPECT_EQ(scalar.query_lanes, avx2.query_lanes);

  // Bitwise-identical interleaved LUTs: both planes run the Algorithm-1
  // recurrence in the same per-lane order, so every table entry must
  // match bit for bit (adds/negates only — no FMA in the builders).
  constexpr unsigned mu = 8;
  const std::size_t lanes = scalar.query_lanes;
  Rng rng(23);
  std::vector<float> xt(mu * lanes);
  fill_normal(rng, xt.data(), xt.size());
  std::vector<float> lut_scalar((std::size_t{1} << mu) * lanes);
  std::vector<float> lut_avx2(lut_scalar.size());
  scalar.build_dp(xt.data(), mu, lut_scalar.data());
  avx2.build_dp(xt.data(), mu, lut_avx2.data());
  EXPECT_EQ(std::memcmp(lut_scalar.data(), lut_avx2.data(),
                        lut_scalar.size() * sizeof(float)),
            0);
  scalar.build_mm(xt.data(), mu, lut_scalar.data());
  avx2.build_mm(xt.data(), mu, lut_avx2.data());
  EXPECT_EQ(std::memcmp(lut_scalar.data(), lut_avx2.data(),
                        lut_scalar.size() * sizeof(float)),
            0);
}

TEST(Dispatch, OneBinaryServesBothPlanesWithConsistentResults) {
  if (!engine::isa_available(KernelIsa::kAvx2)) {
    GTEST_SKIP() << "avx2 plane not available on this host/build";
  }
  Rng rng(31);
  const Matrix w = Matrix::random_normal(80, 72, rng);
  const BinaryCodes codes = quantize(w, 2, QuantMethod::kGreedy);

  // One engine (its keys are packed before any plane exists), planned
  // on a scalar and on an AVX2 context. Outputs agree to rounding (the
  // avx2 query fuses multiply-add) on the batched path, a zero-padded
  // narrow tile, and the GEMV path.
  const BiqGemm engine(codes);
  ExecContext scalar_ctx(nullptr, KernelIsa::kScalar);
  ExecContext avx2_ctx(nullptr, KernelIsa::kAvx2);
  for (const std::size_t b : {std::size_t{1}, std::size_t{5}, std::size_t{16}}) {
    Matrix x = Matrix::random_normal(72, b, rng);
    Matrix y_scalar(80, b), y_avx2(80, b);
    engine.run(x, y_scalar, scalar_ctx);
    engine.run(x, y_avx2, avx2_ctx);
    EXPECT_TRUE(allclose(y_scalar, y_avx2, 1e-5f, 1e-5f)) << "b=" << b;
  }
}

TEST(Dispatch, ScalarAndAvx512PlanesAreBitwiseConsistent) {
  if (!engine::isa_available(KernelIsa::kAvx512)) {
    GTEST_SKIP() << "avx512 plane not available on this host/build";
  }
  EXPECT_STREQ(engine::select_plane(KernelIsa::kAvx512).isa, "avx512");
  const engine::BiqKernels& scalar =
      engine::select_plane(KernelIsa::kScalar).biq;
  const engine::BiqKernels& avx512 =
      engine::select_plane(KernelIsa::kAvx512).biq;
  EXPECT_EQ(avx512.query_lanes, 16u);

  // One 16-lane AVX-512 tile holds the same columns as two 8-lane
  // scalar tiles; the DP recurrence (adds/negates only, same per-lane
  // order) must produce bit-for-bit equal tables, lane by lane.
  constexpr unsigned mu = 8;
  constexpr std::size_t entries = std::size_t{1} << mu;
  const std::size_t lanes = avx512.query_lanes;
  const std::size_t half = scalar.query_lanes;
  ASSERT_EQ(lanes, 2 * half);
  Rng rng(29);
  std::vector<float> xt(mu * lanes);
  fill_normal(rng, xt.data(), xt.size());
  std::vector<float> xt_half[2];
  for (std::size_t h = 0; h < 2; ++h) {
    xt_half[h].resize(mu * half);
    for (unsigned j = 0; j < mu; ++j) {
      std::memcpy(&xt_half[h][j * half], &xt[j * lanes + h * half],
                  half * sizeof(float));
    }
  }
  std::vector<float> lut_avx512(entries * lanes);
  std::vector<float> lut_scalar[2] = {std::vector<float>(entries * half),
                                      std::vector<float>(entries * half)};
  const auto expect_lanes_equal = [&] {
    for (std::size_t h = 0; h < 2; ++h) {
      for (std::size_t k = 0; k < entries; ++k) {
        EXPECT_EQ(std::memcmp(&lut_scalar[h][k * half],
                              &lut_avx512[k * lanes + h * half],
                              half * sizeof(float)),
                  0)
            << "half=" << h << " k=" << k;
      }
    }
  };
  avx512.build_dp(xt.data(), mu, lut_avx512.data());
  for (std::size_t h = 0; h < 2; ++h) {
    scalar.build_dp(xt_half[h].data(), mu, lut_scalar[h].data());
  }
  expect_lanes_equal();
  avx512.build_mm(xt.data(), mu, lut_avx512.data());
  for (std::size_t h = 0; h < 2; ++h) {
    scalar.build_mm(xt_half[h].data(), mu, lut_scalar[h].data());
  }
  expect_lanes_equal();

  // Engine outputs across the 16-lane batched path, a zero-padded last
  // tile and the GEMV path agree with the scalar plane to rounding.
  const Matrix w = Matrix::random_normal(72, 64, rng);
  const BinaryCodes codes = quantize(w, 2, QuantMethod::kGreedy);
  const BiqGemm engine(codes);
  ExecContext scalar_ctx(nullptr, KernelIsa::kScalar);
  ExecContext avx512_ctx(nullptr, KernelIsa::kAvx512);
  for (const std::size_t b :
       {std::size_t{1}, std::size_t{11}, std::size_t{32}}) {
    Matrix x = Matrix::random_normal(64, b, rng);
    Matrix y_scalar(72, b), y_avx512(72, b);
    engine.run(x, y_scalar, scalar_ctx);
    engine.run(x, y_avx512, avx512_ctx);
    EXPECT_TRUE(allclose(y_scalar, y_avx512, 1e-5f, 1e-5f)) << "b=" << b;
  }
}

// The batched query's per-row order, checked on every plane the host
// runs: a row sums its LUT hits with even tables in chain 0, odd tables
// in chain 1 and an odd-count tail table in chain 0, adds the chains,
// then folds each plane's sum into y in plane order. However the kernel
// groups rows, every output must equal this per-row reference bit for
// bit — at odd and even row bounds, over a one-row range, with and
// without a tail table, for tiles within one key window and across
// several, for rows that start mid-byte in the key stream, for a mu the
// query fixes at compile time (6, 8) and one it reads at run time (11),
// and for unit, per-row and grouped scales.
TEST(Dispatch, QueryTileMatchesPerRowChainOrderOnEveryPlane) {
  constexpr std::size_t m = 23, num_planes = 2, t0 = 1, max_tcount = 14;
  constexpr std::size_t groups = 3;  // grouped scales: 3 columns per row
  struct Scales {
    bool on;
    std::size_t stride, offset;
  };
  constexpr Scales kScales[] = {{false, 1, 0}, {true, 1, 0}, {true, groups, 2}};
  constexpr std::pair<std::size_t, std::size_t> kRows[] = {
      {0, m}, {1, m}, {2, 8}, {3, 10}, {4, 5}, {7, 8}};

  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!engine::isa_available(isa)) continue;
    const engine::KernelPlane& plane = engine::select_plane(isa);
    const engine::BiqKernels& k = plane.biq;
    const std::size_t lanes = k.query_lanes;
    // The vector planes scale with a fused multiply-add; the scalar plane
    // multiplies and adds, as this TU's plain expression does.
    const bool fused = std::string(plane.isa) != "scalar";
    for (const unsigned mu : {6u, 8u, 11u}) {
      Rng rng(41 + mu);
      std::vector<KeyMatrix> keys;
      for (std::size_t q = 0; q < num_planes; ++q) {
        keys.emplace_back(
            BinaryMatrix::random(m, (t0 + max_tcount) * mu + 3, rng), mu);
      }
      const std::size_t entries = std::size_t{1} << mu;
      AlignedBuffer<float> lut(max_tcount * entries * lanes);
      fill_normal(rng, lut.data(), lut.size());
      std::vector<std::vector<float>> alphas(num_planes,
                                             std::vector<float>(m * groups));
      for (std::vector<float>& a : alphas) fill_normal(rng, a.data(), a.size());
      std::vector<float> y_init(m * lanes);
      fill_normal(rng, y_init.data(), y_init.size());

      for (const std::size_t tcount :
           {std::size_t{4}, std::size_t{5}, max_tcount - 1, max_tcount}) {
        for (const Scales& s : kScales) {
          for (const auto& [i0, i1] : kRows) {
            std::vector<float> expected = y_init;
            for (std::size_t i = i0; i < i1; ++i) {
              for (std::size_t lane = 0; lane < lanes; ++lane) {
                float& y = expected[i * lanes + lane];
                for (std::size_t q = 0; q < num_planes; ++q) {
                  const auto hit = [&](std::size_t g) {
                    return lut[((g << mu) + keys[q].key(i, t0 + g)) * lanes +
                               lane];
                  };
                  float acc0 = 0.0f, acc1 = 0.0f;
                  std::size_t g = 0;
                  for (; g + 2 <= tcount; g += 2) {
                    acc0 += hit(g);
                    acc1 += hit(g + 1);
                  }
                  if (g < tcount) acc0 += hit(g);
                  const float acc = acc0 + acc1;
                  if (!s.on) {
                    y = y + acc;
                  } else {
                    const float alpha = alphas[q][i * s.stride + s.offset];
                    y = fused ? std::fma(alpha, acc, y) : y + alpha * acc;
                  }
                }
              }
            }

            AlignedBuffer<float> ytile(m * lanes);
            std::copy(y_init.begin(), y_init.end(), ytile.data());
            engine::QueryTileArgs a;
            a.keys = keys.data();
            a.num_planes = num_planes;
            a.alphas = s.on ? alphas.data() : nullptr;
            a.alpha_stride = s.stride;
            a.alpha_offset = s.offset;
            a.t0 = t0;
            a.tcount = tcount;
            a.mu = mu;
            a.lut = lut.data();
            a.ytile = ytile.data();
            a.i0 = i0;
            a.i1 = i1;
            k.query_tile(a);
            EXPECT_EQ(std::memcmp(ytile.data(), expected.data(),
                                  expected.size() * sizeof(float)),
                      0)
                << plane.isa << " mu=" << mu << " tcount=" << tcount
                << " scales=" << (s.on ? s.stride : 0) << " rows=[" << i0
                << ", " << i1 << ")";
          }
        }
      }
    }
  }
}

// The one-lane query sums each row's flat-table hits in a fixed order:
// on the vector planes (mu <= 14, 8 or more tables) 8-lane gathers into
// two chains by alternate 8-table groups, reduced lo + hi, then pairs,
// then the two halves; then, on every plane, four chains over the
// remaining tables by position mod 4, a leftover sum, and
// leftover + (c0 + c1) + (c2 + c3). Rows start at every bit phase (n
// not a multiple of 8) or at whole bytes (mu 8 over 8-bit multiples).
TEST(Dispatch, GemvRowsMatchEachRowsChainOrderOnEveryPlane) {
  constexpr std::size_t m = 21, t0 = 2, max_tcount = 37;
  constexpr std::pair<std::size_t, std::size_t> kRows[] = {
      {0, m}, {3, 4}, {5, 18}};
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!engine::isa_available(isa)) continue;
    const engine::KernelPlane& plane = engine::select_plane(isa);
    const bool gathers = std::string(plane.isa) != "scalar";
    for (const unsigned mu : {4u, 7u, 8u, 11u, 15u}) {
      for (const std::size_t extra : {std::size_t{0}, std::size_t{3}}) {
        Rng rng(53 + mu + extra);
        const KeyMatrix keys(
            BinaryMatrix::random(m, (t0 + max_tcount) * mu + extra, rng), mu);
        AlignedBuffer<float> lut(max_tcount << mu);
        fill_normal(rng, lut.data(), lut.size());
        for (const std::size_t tcount :
             {std::size_t{3}, std::size_t{8}, std::size_t{13}, std::size_t{16},
              std::size_t{17}, max_tcount}) {
          for (const auto& [i0, i1] : kRows) {
            std::vector<float> out(i1 - i0, -1.0f);
            plane.biq.gemv_rows(keys, i0, i1, t0, tcount, lut.data(),
                                out.data());
            for (std::size_t i = i0; i < i1; ++i) {
              const auto hit = [&](std::size_t g) {
                return lut[(g << mu) + keys.key(i, t0 + g)];
              };
              std::size_t g = 0;
              float acc = 0.0f;
              if (gathers && tcount >= 8 && mu <= 14) {
                float c[2][8] = {};
                for (; g + 16 <= tcount; g += 16) {
                  for (std::size_t l = 0; l < 8; ++l) {
                    c[0][l] += hit(g + l);
                    c[1][l] += hit(g + 8 + l);
                  }
                }
                if (g + 8 <= tcount) {
                  for (std::size_t l = 0; l < 8; ++l) c[0][l] += hit(g + l);
                  g += 8;
                }
                float s[8], h[4];
                for (std::size_t l = 0; l < 8; ++l) s[l] = c[0][l] + c[1][l];
                for (std::size_t l = 0; l < 4; ++l) h[l] = s[l] + s[l + 4];
                acc = (h[0] + h[2]) + (h[1] + h[3]);
              }
              float a[4] = {};
              for (; g + 4 <= tcount; g += 4) {
                for (std::size_t l = 0; l < 4; ++l) a[l] += hit(g + l);
              }
              for (; g < tcount; ++g) acc += hit(g);
              const float expected = acc + (a[0] + a[1]) + (a[2] + a[3]);
              EXPECT_EQ(std::memcmp(&out[i - i0], &expected, sizeof(float)),
                        0)
                  << plane.isa << " mu=" << mu << " n%8=" << keys.cols() % 8
                  << " tcount=" << tcount << " row " << i << " of [" << i0
                  << ", " << i1 << ")";
            }
          }
        }
      }
    }
  }
}

TEST(Dispatch, BlockedMicrokernelPlanesAgreeAcrossIsas) {
  Rng rng(37);
  const Matrix w = Matrix::random_normal(61, 90, rng);
  Matrix x = Matrix::random_normal(90, 6, rng);
  Matrix y_scalar(61, 6), expected(61, 6);
  gemm_ref(w, x, expected);

  const BlockedGemm blocked(w);
  ExecContext scalar_ctx(nullptr, KernelIsa::kScalar);
  blocked.run(x, y_scalar, scalar_ctx);
  EXPECT_LT(rel_fro_error(y_scalar, expected), 1e-5);

  for (const KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!engine::isa_available(isa)) continue;
    ExecContext ctx(nullptr, isa);
    Matrix y_vec(61, 6);
    blocked.run(x, y_vec, ctx);
    // FMA contraction differs from the scalar mul+add, so compare to
    // rounding, not bitwise.
    EXPECT_TRUE(allclose(y_scalar, y_vec, 1e-5f, 1e-5f));
  }
}

}  // namespace
}  // namespace biq
