// The LUT build / query split (the GemmPlan prepare/consume contract),
// which only BiQGEMM plans carry: one input's LUTs built once and
// consumed by every plan that reads it. Pins, parameterized over the
// BiQGEMM configurations:
//   * a three-consumer fan-out (the QKV shape) fed by one prepare() is
//     bitwise identical to three fused run(x, y) calls, at batch 1
//     (scalar flat builders) and batch > 1 (interleaved builders),
//   * epilogues (bias / activation / residual) apply identically on the
//     consume path,
//   * a strided window input prepares to the same bits as its dense
//     copy,
//   * prepare+consume is 1-vs-N-thread invariant,
//   * warm prepare+consume performs zero heap allocations (instrumented
//     operator new),
//   * the error surface: every other registry engine carries no prep,
//     not-ready handles, undersized storage, cross-parameter key
//     mismatches, artifacts built on another kernel plane.
// The nn layer does not share prep: each projection runs its own fused
// plan (see nn_model_plan_test for the planned models).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "engine/dispatch.hpp"
#include "engine/registry.hpp"
#include "matrix/matrix.hpp"
#include "threading/thread_pool.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

// Binary-wide instrumented operator new (same pattern as tmac_test /
// exec_context_test): counts every heap allocation so the warm
// prepare+consume zero-allocation guarantee can be asserted directly.
namespace {
std::atomic<std::size_t> g_new_calls{0};

void* counted_alloc(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace biq {
namespace {

void expect_bitwise(ConstMatrixView a, ConstMatrixView b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t c = 0; c < a.cols(); ++c) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, c), b(i, c))
          << what << " differs at (" << i << ", " << c << ")";
    }
  }
}

/// One BiQGEMM configuration. The set below spans every builder variant:
/// the scalar flat builders (batch 1, one lane) and interleaved builders
/// (batch > 1), DP and MM, multi-bit planes and the group-scaled variant.
struct EngineCase {
  const char* label;
  const char* engine;
  unsigned weight_bits;
  bool use_dp_builder;
};

const EngineCase kCases[] = {
    {"biqgemm_1b_dp", "biqgemm", 1, true},
    {"biqgemm_2b_dp", "biqgemm", 2, true},
    {"biqgemm_1b_mm", "biqgemm", 1, false},
    {"biqgemm_grouped_2b", "biqgemm-grouped", 2, true},
};

std::unique_ptr<GemmEngine> case_engine(const EngineCase& c, const Matrix& w) {
  EngineConfig cfg;
  cfg.weight_bits = c.weight_bits;
  cfg.kernel.use_dp_builder = c.use_dp_builder;
  return make_engine(c.engine, w, cfg);
}

class PrepShare : public ::testing::TestWithParam<EngineCase> {};

// The fan-out contract at both builder regimes: one prepare() feeding
// three distinct-weight consumers is bitwise identical to three fused
// run(x, y) calls. Odd shapes keep ragged table/group tails in play.
TEST_P(PrepShare, OnePrepareFeedsThreeConsumersBitwise) {
  const EngineCase c = GetParam();
  const std::size_t m = 48, n = 41;
  Rng rng(17);
  const Matrix w1 = Matrix::random_normal(m, n, rng);
  const Matrix w2 = Matrix::random_normal(m, n, rng);
  const Matrix w3 = Matrix::random_normal(m, n, rng);
  const auto e1 = case_engine(c, w1);
  const auto e2 = case_engine(c, w2);
  const auto e3 = case_engine(c, w3);

  for (const std::size_t b : {std::size_t{1}, std::size_t{6}}) {
    ExecContext ctx;
    const auto p1 = e1->plan(b, ctx);
    const auto p2 = e2->plan(b, ctx);
    const auto p3 = e3->plan(b, ctx);
    ASSERT_TRUE(p1->has_prep()) << c.label;
    ASSERT_GT(p1->prep_floats(), 0u) << c.label;
    // Distinct weights, same activation artifact: the keys must agree.
    ASSERT_EQ(p1->prep_key(), p2->prep_key()) << c.label << " b=" << b;
    ASSERT_EQ(p1->prep_key(), p3->prep_key()) << c.label << " b=" << b;

    const Matrix x = Matrix::random_normal(n, b, rng);
    Matrix f1(m, b), f2(m, b), f3(m, b);
    p1->run(x, f1);
    p2->run(x, f2);
    p3->run(x, f3);

    AlignedBuffer<float> storage(p1->prep_floats());
    PrepHandle prep(storage.data(), storage.size());
    p1->prepare(x, prep);
    EXPECT_TRUE(prep.ready());
    Matrix s1(m, b), s2(m, b), s3(m, b);
    p1->run(prep, s1);
    p2->run(prep, s2);
    p3->run(prep, s3);
    expect_bitwise(s1, f1, "consumer 1");
    expect_bitwise(s2, f2, "consumer 2");
    expect_bitwise(s3, f3, "consumer 3");
  }
}

// Epilogues are applied on the consume path exactly as on the fused
// path: bias + activation through run(prep, y), and the residual
// overload through run(prep, y, residual).
TEST_P(PrepShare, ConsumePathAppliesEpiloguesBitwise) {
  const EngineCase c = GetParam();
  const std::size_t m = 33, n = 28, b = 4;
  Rng rng(23);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const auto engine = case_engine(c, w);
  const Matrix x = Matrix::random_normal(n, b, rng);
  const Matrix res = Matrix::random_normal(m, b, rng);
  const std::vector<float> bias(m, 0.125f);
  ExecContext ctx;

  Epilogue act_ep;
  act_ep.bias = bias.data();
  act_ep.act = EpilogueAct::kRelu;
  const auto act_plan = engine->plan(b, ctx, act_ep);
  ASSERT_TRUE(act_plan->has_prep());
  Matrix fused(m, b), consumed(m, b);
  act_plan->run(x, fused);
  AlignedBuffer<float> storage(act_plan->prep_floats());
  PrepHandle prep(storage.data(), storage.size());
  act_plan->prepare(x, prep);
  act_plan->run(prep, consumed);
  expect_bitwise(consumed, fused, "bias+relu epilogue");

  Epilogue res_ep;
  res_ep.bias = bias.data();
  res_ep.residual = true;
  const auto res_plan = engine->plan(b, ctx, res_ep);
  Matrix fused_r(m, b), consumed_r(m, b);
  res_plan->run(x, fused_r, res);
  res_plan->prepare(x, prep);  // same storage, re-stamped
  res_plan->run(prep, consumed_r, res);
  expect_bitwise(consumed_r, fused_r, "residual epilogue");
}

// prepare() must honor the strided-view contract run() has: a window of
// a larger buffer (ld > rows) freezes the same artifact bits as its
// dense copy, so the shared outputs agree bitwise.
TEST_P(PrepShare, StridedWindowPreparesSameAsDense) {
  const EngineCase c = GetParam();
  const std::size_t m = 37, n = 30, b = 3;
  Rng rng(29);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const auto engine = case_engine(c, w);
  ExecContext ctx;
  const auto plan = engine->plan(b, ctx);
  ASSERT_TRUE(plan->has_prep());

  // The input lives as an interior window of a bigger buffer.
  const Matrix big = Matrix::random_normal(n + 9, b + 4, rng);
  const ConstMatrixView window = big.view().block(5, n, 2, b);
  ASSERT_GT(window.ld(), window.rows());
  Matrix dense(n, b);
  for (std::size_t col = 0; col < b; ++col) {
    for (std::size_t i = 0; i < n; ++i) dense(i, col) = window(i, col);
  }

  AlignedBuffer<float> sw(plan->prep_floats()), sd(plan->prep_floats());
  PrepHandle pw(sw.data(), sw.size()), pd(sd.data(), sd.size());
  plan->prepare(window, pw);
  plan->prepare(dense, pd);
  Matrix yw(m, b), yd(m, b), yf(m, b);
  plan->run(pw, yw);
  plan->run(pd, yd);
  plan->run(dense, yf);
  expect_bitwise(yw, yd, "window vs dense prep");
  expect_bitwise(yw, yf, "window prep vs fused");
}

// Thread-count invariance of the split paths: a serial context and a
// pooled context each prepare + consume; outputs must agree bitwise
// with each other and with the fused serial run.
TEST_P(PrepShare, PrepareConsumeIsThreadCountInvariant) {
  const EngineCase c = GetParam();
  const std::size_t m = 52, n = 36;
  Rng rng(31);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const auto engine = case_engine(c, w);
  for (const std::size_t b : {std::size_t{1}, std::size_t{9}}) {
    const Matrix x = Matrix::random_normal(n, b, rng);
    Matrix y_serial(m, b), y_pool(m, b), y_fused(m, b);
    {
      ExecContext ctx;
      const auto plan = engine->plan(b, ctx);
      ASSERT_TRUE(plan->has_prep());
      AlignedBuffer<float> storage(plan->prep_floats());
      PrepHandle prep(storage.data(), storage.size());
      plan->prepare(x, prep);
      plan->run(prep, y_serial);
      plan->run(x, y_fused);
    }
    {
      ThreadPool pool(4);
      ExecContext ctx(&pool);
      const auto plan = engine->plan(b, ctx);
      AlignedBuffer<float> storage(plan->prep_floats());
      PrepHandle prep(storage.data(), storage.size());
      plan->prepare(x, prep);
      plan->run(prep, y_pool);
    }
    expect_bitwise(y_serial, y_fused, "split vs fused");
    expect_bitwise(y_pool, y_serial, "pooled vs serial split");
  }
}

// The hot-path guarantee: once the plan's scratch is warm, prepare()
// and every consume touch neither the heap nor the context arenas.
TEST_P(PrepShare, WarmPrepareConsumePerformsZeroHeapAllocations) {
  const EngineCase c = GetParam();
  const std::size_t m = 44, n = 32;
  Rng rng(37);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const auto engine = case_engine(c, w);
  for (const std::size_t b : {std::size_t{1}, std::size_t{8}}) {
    const Matrix x = Matrix::random_normal(n, b, rng);
    Matrix y(m, b);
    ThreadPool pool(3);
    ExecContext ctx(&pool);
    const auto plan = engine->plan(b, ctx);
    ASSERT_TRUE(plan->has_prep());
    AlignedBuffer<float> storage(plan->prep_floats());
    PrepHandle prep(storage.data(), storage.size());
    // Two warm passes settle every grow-only arena (prepare's staging
    // scratch may differ from the fused path's first-run footprint).
    for (int i = 0; i < 2; ++i) {
      plan->prepare(x, prep);
      plan->run(prep, y);
    }
    const std::size_t arena_warm = ctx.scratch_heap_allocations();
    const std::size_t new_warm = g_new_calls.load();
    for (int rep = 0; rep < 3; ++rep) {
      plan->prepare(x, prep);
      plan->run(prep, y);
      plan->run(prep, y);
    }
    EXPECT_EQ(ctx.scratch_heap_allocations(), arena_warm)
        << c.label << " b=" << b;
    EXPECT_EQ(g_new_calls.load(), new_warm) << c.label << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrepEngines, PrepShare,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<EngineCase>& info) {
                           return std::string(info.param.label);
                         });

// ------------------------------------------------------- error surface

// The seam is BiQGEMM's alone: every other registry engine reads X
// directly, so its plans report no prep and reject both halves.
TEST(PrepErrors, DensePlansCarryNoPrep) {
  Rng rng(41);
  const Matrix w = Matrix::random_normal(12, 10, rng);
  const Matrix x = Matrix::random_normal(10, 2, rng);
  AlignedBuffer<float> storage(64);
  PrepHandle prep(storage.data(), storage.size());
  Matrix y(12, 2);
  std::size_t checked = 0;
  for (const std::string& name : EngineRegistry::instance().names()) {
    if (name == "biqgemm" || name == "biqgemm-grouped") continue;
    SCOPED_TRACE(name);
    const auto engine = make_engine(name, w);
    ExecContext ctx;
    const auto plan = engine->plan(2, ctx);
    EXPECT_FALSE(plan->has_prep());
    EXPECT_FALSE(plan->prep_key().valid());
    EXPECT_EQ(plan->prep_floats(), 0u);
    EXPECT_THROW(plan->prepare(x, prep), std::invalid_argument);
    EXPECT_THROW(plan->run(prep, y), std::invalid_argument);
    ++checked;
  }
  EXPECT_GE(checked, 6u);  // blocked, naive, int8, unpack, xnor, tmac-lut
}

TEST(PrepErrors, NotReadyAndUndersizedHandlesThrow) {
  Rng rng(43);
  const Matrix w = Matrix::random_normal(16, 24, rng);
  EngineConfig cfg;
  cfg.weight_bits = 2;
  const auto engine = make_engine("biqgemm", w, cfg);
  ExecContext ctx;
  const auto plan = engine->plan(3, ctx);
  const Matrix x = Matrix::random_normal(24, 3, rng);
  Matrix y(16, 3);
  AlignedBuffer<float> storage(plan->prep_floats());

  PrepHandle prep(storage.data(), storage.size());
  EXPECT_THROW(plan->run(prep, y), std::invalid_argument);  // never prepared

  PrepHandle small(storage.data(), plan->prep_floats() - 1);
  EXPECT_THROW(plan->prepare(x, small), std::invalid_argument);
  PrepHandle unbound;
  EXPECT_THROW(plan->prepare(x, unbound), std::invalid_argument);

  // bind() invalidates readiness: the old artifact must not be
  // consumable through a rebound handle.
  plan->prepare(x, prep);
  EXPECT_TRUE(prep.ready());
  EXPECT_NO_THROW(plan->run(prep, y));
  prep.bind(storage.data(), storage.size());
  EXPECT_FALSE(prep.ready());
  EXPECT_THROW(plan->run(prep, y), std::invalid_argument);
}

TEST(PrepErrors, MismatchedKeysAreRejected) {
  Rng rng(47);
  const std::size_t m = 20, n = 24, b = 3;
  const Matrix w = Matrix::random_normal(m, n, rng);
  const Matrix x = Matrix::random_normal(n, b, rng);
  ExecContext ctx;
  Matrix y(m, b);

  EngineConfig biq_cfg;
  biq_cfg.weight_bits = 2;
  const auto biq_engine = make_engine("biqgemm", w, biq_cfg);
  const auto biq_plan = biq_engine->plan(b, ctx);
  AlignedBuffer<float> storage(biq_plan->prep_floats() + 4096);
  PrepHandle prep(storage.data(), storage.size());
  biq_plan->prepare(x, prep);

  // Same family, different parameters: another mu freezes an
  // incompatible table layout.
  EngineConfig other_mu = biq_cfg;
  other_mu.kernel.mu = biq_plan->prep_key().p0 == 4 ? 6 : 4;
  const auto mu_engine = make_engine("biqgemm", w, other_mu);
  const auto mu_plan = mu_engine->plan(b, ctx);
  ASSERT_NE(mu_plan->prep_key(), biq_plan->prep_key());
  EXPECT_THROW(mu_plan->run(prep, y), std::invalid_argument);

  // Same engine, different batch: the artifact covers b columns only.
  const auto wide_plan = biq_engine->plan(b + 1, ctx);
  Matrix y_wide(m, b + 1);
  EXPECT_THROW(wide_plan->run(prep, y_wide), std::invalid_argument);
}

// The key carries the kernel plane of the context a plan is compiled
// on. The scalar and AVX2 planes both build 8-lane tables, so only the
// plane tells their artifacts apart.
TEST(PrepErrors, KeyCarriesTheContextsPlane) {
  if (!engine::isa_available(KernelIsa::kAvx2)) {
    GTEST_SKIP() << "avx2 plane not available on this host/build";
  }
  Rng rng(53);
  const std::size_t m = 20, n = 24, b = 3;
  const Matrix w = Matrix::random_normal(m, n, rng);
  const Matrix x = Matrix::random_normal(n, b, rng);
  EngineConfig cfg;
  cfg.weight_bits = 2;
  const auto biq_engine = make_engine("biqgemm", w, cfg);
  ExecContext scalar_ctx(nullptr, KernelIsa::kScalar);
  ExecContext avx2_ctx(nullptr, KernelIsa::kAvx2);
  const auto scalar_plan = biq_engine->plan(b, scalar_ctx);
  const auto avx2_plan = biq_engine->plan(b, avx2_ctx);
  ASSERT_EQ(scalar_plan->prep_key().p1, avx2_plan->prep_key().p1);  // lanes
  EXPECT_NE(scalar_plan->prep_key(), avx2_plan->prep_key());

  AlignedBuffer<float> storage(scalar_plan->prep_floats());
  PrepHandle prep(storage.data(), storage.size());
  Matrix y(m, b);
  scalar_plan->prepare(x, prep);
  EXPECT_THROW(avx2_plan->run(prep, y), std::invalid_argument);
  avx2_plan->prepare(x, prep);
  EXPECT_THROW(scalar_plan->run(prep, y), std::invalid_argument);

  // Two plans on one context still share one artifact.
  const auto avx2_again = biq_engine->plan(b, avx2_ctx);
  ASSERT_EQ(avx2_again->prep_key(), avx2_plan->prep_key());
  avx2_again->run(prep, y);
  Matrix y_fused(m, b);
  avx2_plan->run(x, y_fused);
  expect_bitwise(y, y_fused, "shared artifact");
}

}  // namespace
}  // namespace biq
