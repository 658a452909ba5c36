#include <gtest/gtest.h>

#include "core/biqgemm.hpp"
#include "gemm/gemm_ref.hpp"
#include "nn/linear.hpp"
#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"
#include "quant/alternating.hpp"
#include "quant/greedy.hpp"

namespace biq::nn {
namespace {

void add_bias(Matrix& y, const std::vector<float>& bias) {
  for (std::size_t c = 0; c < y.cols(); ++c) {
    for (std::size_t i = 0; i < y.rows(); ++i) y(i, c) += bias[i];
  }
}

TEST(LinearLayer, MatchesReferenceWithBias) {
  Rng rng(1);
  Matrix w = Matrix::random_normal(12, 20, rng);
  std::vector<float> bias(12);
  fill_normal(rng, bias.data(), bias.size());
  Matrix x = Matrix::random_normal(20, 5, rng);

  Matrix expected(12, 5);
  gemm_ref(w, x, expected);
  add_bias(expected, bias);

  const auto layer = make_linear(w, bias, 0);
  Matrix actual(12, 5);
  layer->forward(x, actual);
  EXPECT_TRUE(allclose(actual, expected, 1e-3f, 1e-3f));
  EXPECT_EQ(layer->in_features(), 20u);
  EXPECT_EQ(layer->out_features(), 12u);
  EXPECT_EQ(layer->weight_bytes(), 12u * 20u * 4u);
}

TEST(LinearLayer, EmptyBiasSkipsAddition) {
  Rng rng(2);
  Matrix w = Matrix::random_normal(6, 6, rng);
  Matrix x = Matrix::random_normal(6, 2, rng);
  Matrix expected(6, 2);
  gemm_ref(w, x, expected);
  const auto layer = make_linear(w, {}, 0);
  Matrix actual(6, 2);
  layer->forward(x, actual);
  EXPECT_TRUE(allclose(actual, expected, 1e-3f, 1e-3f));
}

TEST(LinearLayer, RejectsBadBias) {
  Rng rng(3);
  Matrix w = Matrix::random_normal(4, 4, rng);
  for (const unsigned bits : {0u, 2u}) {
    EXPECT_THROW((void)make_linear(w, std::vector<float>(3, 0.0f), bits),
                 std::invalid_argument)
        << "bits=" << bits;
  }
}

TEST(MakeLinear, QuantizedMatchesCodesGemm) {
  Rng rng(4);
  Matrix w = Matrix::random_normal(16, 32, rng);
  std::vector<float> bias(16, 0.25f);
  Matrix x = Matrix::random_normal(32, 4, rng);

  // make_linear(greedy, q bits) must equal GEMM with the greedy codes.
  const BinaryCodes codes = quantize_greedy(w, 3);
  Matrix expected(16, 4);
  gemm_codes_ref(codes, x, expected);
  add_bias(expected, bias);

  const auto layer = make_linear(w, bias, 3, QuantMethod::kGreedy);
  Matrix actual(16, 4);
  layer->forward(x, actual);
  EXPECT_TRUE(allclose(actual, expected, 1e-3f, 1e-3f));
  EXPECT_EQ(static_cast<const BiqGemm&>(layer->engine()).bits(), 3u);
}

TEST(MakeLinear, AlternatingMethodWired) {
  Rng rng(5);
  Matrix w = Matrix::random_normal(10, 24, rng);
  Matrix x = Matrix::random_normal(24, 2, rng);
  const BinaryCodes codes = quantize_alternating(w, 2);
  Matrix expected(10, 2);
  gemm_codes_ref(codes, x, expected);

  const auto layer = make_linear(w, {}, 2, QuantMethod::kAlternating);
  Matrix actual(10, 2);
  layer->forward(x, actual);
  EXPECT_TRUE(allclose(actual, expected, 1e-3f, 1e-3f));
}

TEST(MakeLinear, ApproximatesFloatLayerWithinQuantError) {
  Rng rng(6);
  Matrix w = Matrix::random_normal(64, 128, rng);
  Matrix x = Matrix::random_normal(128, 8, rng);

  const auto fp = make_linear(w, {}, 0);
  Matrix y_fp(64, 8);
  fp->forward(x, y_fp);

  for (unsigned bits : {1u, 2u, 3u, 4u}) {
    const auto q = make_linear(w, {}, bits);
    Matrix y_q(64, 8);
    q->forward(x, y_q);
    const double err = rel_fro_error(y_q, y_fp);
    EXPECT_LT(err, 1.0) << "bits=" << bits;
    if (bits >= 3) {
      EXPECT_LT(err, 0.25) << "bits=" << bits;
    }
  }
}

TEST(MakeLinear, OutputErrorShrinksWithBits) {
  Rng rng(7);
  Matrix w = Matrix::random_normal(48, 96, rng);
  Matrix x = Matrix::random_normal(96, 4, rng);
  const auto fp = make_linear(w, {}, 0);
  Matrix y_fp(48, 4);
  fp->forward(x, y_fp);

  double prev = 1e9;
  for (unsigned bits : {1u, 2u, 4u}) {
    const auto q = make_linear(w, {}, bits);
    Matrix y_q(48, 4);
    q->forward(x, y_q);
    const double err = rel_fro_error(y_q, y_fp);
    EXPECT_LT(err, prev) << "bits=" << bits;
    prev = err;
  }
}

TEST(MakeLinear, CompressionRatioNearFactorOfBits) {
  Rng rng(8);
  Matrix w = Matrix::random_normal(256, 256, rng);
  const auto q2 = make_linear(w, {}, 2);
  const auto fp = make_linear(w, {}, 0);
  const double ratio = static_cast<double>(fp->weight_bytes()) /
                       static_cast<double>(q2->weight_bytes());
  // 32/2 = 16x, minus scale overhead.
  EXPECT_GT(ratio, 14.0);
  EXPECT_LE(ratio, 16.0);
}

TEST(MakeLinear, DispatchesOnBits) {
  Rng rng(10);
  Matrix w = Matrix::random_normal(8, 8, rng);
  BiqGemmOptions opt;
  opt.mu = 4;
  const auto fp = make_linear(w, {}, 0);
  const auto quant = make_linear(w, {}, 2, QuantMethod::kGreedy, opt);
  EXPECT_EQ(fp->engine().name(), "blocked");
  ASSERT_EQ(quant->engine().name(), "biqgemm");
  const auto& biq = static_cast<const BiqGemm&>(quant->engine());
  EXPECT_EQ(biq.bits(), 2u);
  EXPECT_EQ(biq.mu(), 4u);
}

TEST(MakeLinear, PooledForwardMatchesSerialBitwise) {
  // Dense and quantized layers both execute through the context they
  // are run on: the pooled forward matches the serial one bitwise (the
  // partitioner guarantee) and actually used the pooled context —
  // biqgemm serves its scratch from the context's arenas, so a run that
  // used `ctx` leaves allocations behind.
  Rng rng(11);
  Matrix w = Matrix::random_normal(64, 96, rng);
  Matrix x = Matrix::random_normal(96, 32, rng);

  ThreadPool pool(4);
  for (const unsigned bits : {0u, 2u}) {
    const auto layer = make_linear(w, {}, bits);
    ExecContext serial_ctx, ctx(&pool);
    Matrix serial(64, 32), threaded(64, 32);
    layer->forward(x, serial, serial_ctx);
    layer->forward(x, threaded, ctx);
    EXPECT_EQ(max_abs_diff(serial, threaded), 0.0f) << "bits=" << bits;
    if (bits != 0) {
      EXPECT_GT(ctx.scratch_heap_allocations(), 0u);
    }
  }
}

TEST(LinearLayer, PlannedStepReadsAndWritesStridedWindows) {
  // A compiled step consumes/fills windows of larger buffers directly:
  // the strided run must match the dense run bitwise and leave the rest
  // of the output buffer untouched.
  Rng rng(12);
  Matrix w = Matrix::random_normal(24, 32, rng);
  std::vector<float> bias(24, 0.5f);
  Matrix x = Matrix::random_normal(32, 6, rng);

  const auto layer = make_linear(w, bias, 2);
  ExecContext ctx;
  const ModelPlan plan(*layer, 6, ctx);
  Matrix dense(24, 6);
  plan.run(x, dense);

  Matrix x_big(40, 9, /*zero_fill=*/false);
  x_big.fill(123.0f);
  for (std::size_t c = 0; c < 6; ++c) {
    for (std::size_t i = 0; i < 32; ++i) x_big(4 + i, 2 + c) = x(i, c);
  }
  Matrix y_big(30, 8, /*zero_fill=*/false);
  y_big.fill(-9.0f);
  plan.run(x_big.block(4, 32, 2, 6), y_big.block(3, 24, 1, 6));

  for (std::size_t c = 0; c < y_big.cols(); ++c) {
    for (std::size_t i = 0; i < y_big.rows(); ++i) {
      const bool inside = i >= 3 && i < 27 && c >= 1 && c < 7;
      ASSERT_EQ(y_big(i, c), inside ? dense(i - 3, c - 1) : -9.0f)
          << "(" << i << "," << c << ")";
    }
  }
}

TEST(LinearLayer, ModuleInterfaceShapesAndPlannedStep) {
  // Every LinearLayer is a PlannableModule: shape propagation rejects a
  // row mismatch, and the frozen module step is bitwise identical to
  // the one-shot forward.
  Rng rng(11);
  Matrix w = Matrix::random_normal(12, 20, rng);
  ExecContext ctx;
  const auto layer = make_linear(w, std::vector<float>(12, 0.25f), 2);
  const PlannableModule& module = *layer;
  EXPECT_EQ(module.in_rows(), 20u);
  const Shape out = module.out_shape({20, 5});
  EXPECT_EQ(out.rows, 12u);
  EXPECT_EQ(out.cols, 5u);
  EXPECT_THROW((void)module.out_shape({19, 5}), std::invalid_argument);

  const Matrix x = Matrix::random_normal(20, 5, rng);
  Matrix once(12, 5);
  layer->forward(x, once, ctx);

  ModelPlanner planner;
  ModulePlanContext mpc(planner, ctx, 5);
  const auto step = module.plan_into(mpc);
  EXPECT_EQ(planner.peak_floats(), 0u);  // a projection owns no slots
  Matrix planned(12, 5);
  step->run_step(nullptr, x, planned);
  EXPECT_EQ(max_abs_diff(planned, once), 0.0f);
}

}  // namespace
}  // namespace biq::nn
