// The math plane's lockstep LayerNorm (MathKernels::layernorm), called
// directly on every compiled plane this host can run, against the
// per-column sequential chain written out below: the same bits for
// every column, whichever columns share a call, in place and into a
// separate destination; and the standalone LayerNorm step, which runs
// it over a whole batch, on every plane.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "engine/dispatch.hpp"
#include "matrix/matrix.hpp"
#include "nn/layernorm.hpp"
#include "nn/model_plan.hpp"
#include "util/rng.hpp"

namespace biq {
namespace {

std::vector<KernelIsa> available_isas() {
  std::vector<KernelIsa> out;
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (engine::isa_available(isa)) out.push_back(isa);
  }
  return out;
}

/// The per-column chain: mean and variance as sequential double sums,
/// then the scaled write, one rounding per operation.
void chain(const float* src, float* dst, std::size_t d, const float* gamma,
           const float* beta, float eps) {
  double mean = 0.0;
  for (std::size_t i = 0; i < d; ++i) mean += src[i];
  mean /= static_cast<double>(d);
  double var = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    const double dv = src[i] - mean;
    var += dv * dv;
  }
  var /= static_cast<double>(d);
  const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
  for (std::size_t i = 0; i < d; ++i) {
    dst[i] = gamma[i] * (static_cast<float>(src[i] - mean) * inv) + beta[i];
  }
}

/// Columns of varied scale and offset (and one constant column, whose
/// variance is exactly 0), so the double sums carry real rounding.
Matrix columns(std::size_t d, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x = Matrix::random_normal(d, cols, rng);
  for (std::size_t c = 0; c < cols; ++c) {
    const float scale = std::ldexp(1.0f, static_cast<int>(c % 7) - 3);
    for (std::size_t i = 0; i < d; ++i) {
      x(i, c) = c == 2 ? 1.5f : x(i, c) * scale + static_cast<float>(c);
    }
  }
  return x;
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(LockstepLayerNorm, EqualsThePerColumnChainOnEveryPlane) {
  for (const KernelIsa isa : available_isas()) {
    const engine::MathKernels& math = engine::select_plane(isa).math;
    ASSERT_GE(math.lanes, 1u);
    ASSERT_LE(math.lanes, engine::kMaxMathLanes);
    for (const std::size_t d : {1u, 5u, 16u, 33u, 512u}) {
      Rng rng(d);
      const Matrix g = Matrix::random_normal(d, 2, rng);
      const float* gamma = g.col(0);
      const float* beta = g.col(1);
      for (std::size_t cols = 1; cols <= math.lanes; ++cols) {
        const Matrix x = columns(d, cols, 31 * d + cols);
        Matrix ref(d, cols);
        for (std::size_t c = 0; c < cols; ++c) {
          chain(x.col(c), ref.col(c), d, gamma, beta, 1e-5f);
        }
        const std::string what = std::string(engine::select_plane(isa).isa) +
                                 " d " + std::to_string(d) + " cols " +
                                 std::to_string(cols);

        // Split destination: src untouched, dst a separate block.
        Matrix out(d, cols);
        std::vector<const float*> src(cols);
        std::vector<float*> dst(cols);
        for (std::size_t c = 0; c < cols; ++c) {
          src[c] = x.col(c);
          dst[c] = out.col(c);
        }
        math.layernorm(src.data(), dst.data(), cols, d, gamma, beta, 1e-5f);
        for (std::size_t c = 0; c < cols; ++c) {
          EXPECT_TRUE(same_bits(out.col(c), ref.col(c), d))
              << what << " split column " << c;
        }

        // In place.
        Matrix y = x;
        for (std::size_t c = 0; c < cols; ++c) {
          src[c] = y.col(c);
          dst[c] = y.col(c);
        }
        math.layernorm(src.data(), dst.data(), cols, d, gamma, beta, 1e-5f);
        for (std::size_t c = 0; c < cols; ++c) {
          EXPECT_TRUE(same_bits(y.col(c), ref.col(c), d))
              << what << " in-place column " << c;
        }
      }
    }
  }
}

TEST(LockstepLayerNorm, StandaloneStepEqualsTheChainOnEveryPlane) {
  // The LayerNorm step normalizes a batch wider than any plane's lanes,
  // plane-width groups plus a remainder, on its context's plane.
  const std::size_t d = 40, batch = 37;
  nn::LayerNorm ln(d, 1e-3f);
  Rng rng(8);
  for (std::size_t i = 0; i < d; ++i) {
    ln.gamma()[i] = 1.0f + 0.1f * rng.uniform(-1.0f, 1.0f);
    ln.beta()[i] = 0.1f * rng.uniform(-1.0f, 1.0f);
  }
  const Matrix x = columns(d, batch, 9);
  Matrix ref(d, batch);
  for (std::size_t c = 0; c < batch; ++c) {
    chain(x.col(c), ref.col(c), d, ln.gamma().data(), ln.beta().data(),
          ln.eps());
  }
  for (const KernelIsa isa : available_isas()) {
    ExecContext ctx(nullptr, isa);
    const nn::ModelPlan plan(ln, batch, ctx);
    Matrix y(d, batch);
    plan.run(x, y);
    for (std::size_t c = 0; c < batch; ++c) {
      EXPECT_TRUE(same_bits(y.col(c), ref.col(c), d))
          << engine::select_plane(isa).isa << " column " << c;
    }
  }
}

}  // namespace
}  // namespace biq
