// The fp32 math plane (engine/math_kernels_impl.hpp), called directly on
// every compiled plane this host can run: exp against std::exp in ulps,
// the activations and the column softmax against double-precision
// references, NaN and limit behaviour, position independence of the
// sweeps, and the attention-head kernel on strided views of larger
// buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "engine/dispatch.hpp"
#include "engine/registry.hpp"
#include "matrix/matrix.hpp"
#include "nn/activations.hpp"
#include "nn/model_plan.hpp"
#include "util/rng.hpp"

namespace biq::engine {
namespace {

using Sweep = void (*)(const float*, float*, std::size_t);

std::vector<const KernelPlane*> planes() {
  std::vector<const KernelPlane*> out;
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (isa_available(isa)) out.push_back(&select_plane(isa));
  }
  return out;
}

struct Fn {
  const char* name;
  Sweep MathKernels::*sweep;
};

constexpr Fn kFns[] = {{"exp", &MathKernels::exp},
                       {"gelu", &MathKernels::gelu},
                       {"sigmoid", &MathKernels::sigmoid},
                       {"tanh", &MathKernels::tanh}};

float one(const MathKernels& m, Sweep MathKernels::*f, float x) {
  (m.*f)(&x, &x, 1);
  return x;
}

/// Distance in units in the last place between two finite floats.
std::int64_t ulps(float a, float b) {
  const auto key = [](float f) {
    std::int32_t i = 0;
    std::memcpy(&i, &f, sizeof i);
    return i < 0 ? std::int64_t{INT32_MIN} - i : std::int64_t{i};
  };
  return std::llabs(key(a) - key(b));
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double gelu_ref(double x) {
  const double u = std::sqrt(2.0 / M_PI) * (x + 0.044715 * x * x * x);
  return 0.5 * x * (1.0 + std::tanh(u));
}
double sigmoid_ref(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// The formulas the library used before the math plane: the limits below
// must not move.
float old_gelu(float v) {
  const float inner = 0.7978845608028654f * (v + 0.044715f * v * v * v);
  return 0.5f * v * (1.0f + std::tanh(inner));
}
float old_sigmoid(float v) { return 1.0f / (1.0f + std::exp(-v)); }

TEST(MathKernels, ExpWithinTwoUlpOfStd) {
  constexpr std::size_t kN = std::size_t{1} << 21;
  std::vector<float> x(kN), y(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = -87.0f + 175.0f * static_cast<float>(i) / static_cast<float>(kN - 1);
  }
  for (const KernelPlane* p : planes()) {
    const MathKernels* m = &p->math;
    m->exp(x.data(), y.data(), kN);
    std::int64_t worst = 0;
    float at = 0.0f;
    for (std::size_t i = 0; i < kN; ++i) {
      const std::int64_t u = ulps(y[i], std::exp(x[i]));
      if (u > worst) {
        worst = u;
        at = x[i];
      }
    }
    EXPECT_LE(worst, 2) << p->isa << " worst at x = " << at;
  }
}

TEST(MathKernels, ActivationsMatchDoubleReference) {
  std::vector<float> x;
  for (float v = -30.0f; v <= 30.0f; v += 1.0f / 512.0f) x.push_back(v);
  for (float v : {-1e4f, -300.0f, -90.0f, 90.0f, 300.0f, 1e4f, 1e-30f}) {
    x.push_back(v);
  }
  std::vector<float> y(x.size());
  for (const KernelPlane* p : planes()) {
    const MathKernels* m = &p->math;
    m->sigmoid(x.data(), y.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_LE(std::fabs(y[i] - sigmoid_ref(x[i])), 3e-7)
          << p->isa << " sigmoid(" << x[i] << ")";
    }
    m->tanh(x.data(), y.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_LE(std::fabs(y[i] - std::tanh(static_cast<double>(x[i]))), 3e-7)
          << p->isa << " tanh(" << x[i] << ")";
    }
    m->gelu(x.data(), y.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double bound = 4e-7 * std::max(1.0, std::fabs(double{x[i]}));
      ASSERT_LE(std::fabs(y[i] - gelu_ref(x[i])), bound)
          << p->isa << " gelu(" << x[i] << ")";
    }
  }
}

TEST(MathKernels, NanInGivesNanOut) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const KernelPlane* p : planes()) {
    const MathKernels* m = &p->math;
    for (const Fn& f : kFns) {
      EXPECT_TRUE(std::isnan(one(*m, f.sweep, nan)))
          << p->isa << " " << f.name;
      EXPECT_TRUE(std::isnan(one(*m, f.sweep, -nan)))
          << p->isa << " " << f.name;
    }
  }
}

TEST(MathKernels, LimitsMatchStdFormulas) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> in = {0.0f,   -0.0f,   inf,    -inf,  88.73f,
                                 -88.73f, 89.0f,  -89.0f, 104.5f, -104.5f,
                                 200.0f, -200.0f, 1e4f,   -1e4f};
  const auto expect_same = [](float got, float want, const std::string& what) {
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << what;
    } else {
      EXPECT_TRUE(same_bits(got, want)) << what << ": " << got << " vs " << want;
    }
  };
  for (const KernelPlane* p : planes()) {
    const MathKernels* m = &p->math;
    for (float v : in) {
      const std::string at = std::string(p->isa) + " at " + std::to_string(v);
      // exp(-88.73) is subnormal and only close, not a limit.
      if (v != -88.73f) {
        expect_same(one(*m, &MathKernels::exp, v), std::exp(v), "exp " + at);
      }
      expect_same(one(*m, &MathKernels::sigmoid, v), old_sigmoid(v),
                  "sigmoid " + at);
      expect_same(one(*m, &MathKernels::tanh, v), std::tanh(v), "tanh " + at);
      // gelu(-Inf) is -Inf * 0 = NaN in either form.
      expect_same(one(*m, &MathKernels::gelu, v), old_gelu(v), "gelu " + at);
    }
    EXPECT_GT(one(*m, &MathKernels::exp, -103.0f), 0.0f) << p->isa;
  }
}

TEST(MathKernels, SweepsArePositionIndependent) {
  constexpr std::size_t kN = 37;
  Rng rng(11);
  std::vector<float> x(kN);
  for (float& v : x) v = 6.0f * rng.normal();
  x[5] = 0.3f;  // below tanh's polynomial cut-over
  x[20] = -0.0f;
  for (const KernelPlane* p : planes()) {
    const MathKernels* m = &p->math;
    for (const Fn& f : kFns) {
      const Sweep sweep = m->*f.sweep;
      std::vector<float> whole(kN);
      sweep(x.data(), whole.data(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        float alone = x[i];
        sweep(&alone, &alone, 1);
        ASSERT_TRUE(same_bits(alone, whole[i]))
            << p->isa << " " << f.name << " element " << i << " alone";
      }
      for (std::size_t off = 0; off < 16; ++off) {
        std::vector<float> buf(kN + 16, 0.0f);
        std::copy(x.begin(), x.end(), buf.begin() + static_cast<long>(off));
        sweep(buf.data() + off, buf.data() + off, kN);
        ASSERT_EQ(std::memcmp(buf.data() + off, whole.data(), kN * sizeof(float)),
                  0)
            << p->isa << " " << f.name << " at offset " << off;
      }
    }
  }
}

TEST(MathKernels, SoftmaxMatchesDoubleReference) {
  Rng rng(5);
  for (const KernelPlane* p : planes()) {
    const MathKernels* m = &p->math;
    for (std::size_t n : {1, 5, 16, 17, 33, 128}) {
      std::vector<float> col(n);
      for (float& v : col) v = 4.0f * rng.normal();
      const std::vector<float> in = col;
      m->softmax(col.data(), n);
      const double peak = *std::max_element(in.begin(), in.end());
      double sum = 0.0;
      for (float v : in) sum += std::exp(v - peak);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(col[i], std::exp(in[i] - peak) / sum, 1e-6)
            << p->isa << " n = " << n << " row " << i;
      }
    }
    m->softmax(nullptr, 0);  // a zero-length column touches nothing
  }
}

/// Double-precision attention over one head: scores = softmax(scale *
/// K^T Q) column-wise, context = V . scores.
Matrix attend_ref(ConstMatrixView q, ConstMatrixView k, ConstMatrixView v,
                  double scale) {
  const std::size_t d = q.rows(), t = q.cols();
  Matrix out(d, t);
  std::vector<double> s(t), c(d);
  for (std::size_t qt = 0; qt < t; ++qt) {
    double peak = -INFINITY;
    for (std::size_t kt = 0; kt < t; ++kt) {
      double dot = 0.0;
      for (std::size_t i = 0; i < d; ++i) dot += double{q(i, qt)} * k(i, kt);
      s[kt] = dot * scale;
      peak = std::max(peak, s[kt]);
    }
    double sum = 0.0;
    for (double& e : s) sum += (e = std::exp(e - peak));
    std::fill(c.begin(), c.end(), 0.0);
    for (std::size_t kt = 0; kt < t; ++kt) {
      for (std::size_t i = 0; i < d; ++i) c[i] += v(i, kt) * (s[kt] / sum);
    }
    for (std::size_t i = 0; i < d; ++i) out(i, qt) = static_cast<float>(c[i]);
  }
  return out;
}

TEST(MathKernels, AttendHeadMatchesDoubleReferenceOnStridedViews) {
  constexpr float kGuard = 12345.0f;
  Rng rng(3);
  for (const KernelPlane* p : planes()) {
    const MathKernels* m = &p->math;
    for (std::size_t hd : {4, 16, 64, 72}) {
      for (std::size_t t : {1, 7, 33, 128}) {
        for (std::size_t heads : {1, 8}) {
          const std::size_t hidden = heads * hd;
          // Every operand is a window of a larger buffer.
          const Matrix qb = Matrix::random_normal(hidden + 3, t + 2, rng);
          const Matrix kb = Matrix::random_normal(hidden + 3, t + 2, rng);
          const Matrix vb = Matrix::random_normal(hidden + 3, t + 2, rng);
          Matrix sb(t + 5, t + 1);
          Matrix cb(hidden + 4, t + 3);
          cb.fill(kGuard);
          const MatrixView scores = sb.block(2, t, 1, t);
          const MatrixView context = cb.block(1, hidden, 2, t);
          const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
          for (std::size_t h = 0; h < heads; ++h) {
            const std::size_t r0 = 1 + h * hd;
            m->attend_head(qb.block(r0, hd, 1, t), kb.block(r0, hd, 1, t),
                           vb.block(r0, hd, 1, t), scale, scores,
                           context.block(h * hd, hd, 0, t));
          }
          for (std::size_t h = 0; h < heads; ++h) {
            const std::size_t r0 = 1 + h * hd;
            const Matrix ref =
                attend_ref(qb.block(r0, hd, 1, t), kb.block(r0, hd, 1, t),
                           vb.block(r0, hd, 1, t), scale);
            for (std::size_t c = 0; c < t; ++c) {
              for (std::size_t i = 0; i < hd; ++i) {
                ASSERT_NEAR(context(h * hd + i, c), ref(i, c), 2e-6f)
                    << p->isa << " hd " << hd << " t " << t << " heads "
                    << heads << " head " << h << " at (" << i << ", " << c
                    << ")";
              }
            }
          }
          // Nothing outside the context window was written.
          for (std::size_t c = 0; c < cb.cols(); ++c) {
            for (std::size_t i = 0; i < cb.rows(); ++i) {
              const bool inside =
                  i >= 1 && i < 1 + hidden && c >= 2 && c < 2 + t;
              if (!inside) {
                ASSERT_EQ(cb(i, c), kGuard) << i << ", " << c;
              }
            }
          }
        }
      }
    }
  }
}

// A plan runs the math plane of the ExecContext it was planned on, not
// the process default: on a scalar context a GELU epilogue and a
// standalone Activation step both give the scalar plane's GELU bits,
// whatever plane kAuto (or BIQ_ISA) picks. The vector planes' GELU
// differs from the scalar one in the last bits on a few hundred of
// these 4096 inputs, so a plan that fell back to the process plane
// fails here on a vector host.
TEST(MathKernels, PlansRunTheMathPlaneOfTheirContext) {
  constexpr std::size_t kRows = 64, kCols = 64;
  Rng rng(27);
  const Matrix x = Matrix::random_uniform(kRows, kCols, rng, -6.0f, 6.0f);
  const MathKernels& scalar = select_plane(KernelIsa::kScalar).math;
  ExecContext ctx(nullptr, KernelIsa::kScalar);

  // GEMM plan with a GELU epilogue: gelu(W . x), against the scalar
  // sweep over the same plan's epilogue-free output.
  const auto eng = make_engine("blocked", Matrix::random_normal(kRows, kRows, rng));
  Epilogue ep;
  ep.act = EpilogueAct::kGelu;
  const auto fused = eng->plan(kCols, ctx, ep);
  EXPECT_STREQ(fused->plane().isa, "scalar");
  Matrix raw(kRows, kCols), got(kRows, kCols);
  eng->plan(kCols, ctx)->run(x, raw);
  fused->run(x, got);
  Matrix want = raw;
  scalar.gelu(want.data(), want.data(), kRows * kCols);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), kRows * kCols * sizeof(float)),
            0);

  // Standalone Activation(kGelu) module: gelu(x).
  const nn::Activation act(kRows, nn::Act::kGelu);
  const nn::ModelPlan plan(act, kCols, ctx);
  Matrix y(kRows, kCols), expect(kRows, kCols);
  plan.run(x, y);
  scalar.gelu(x.data(), expect.data(), kRows * kCols);
  EXPECT_EQ(std::memcmp(y.data(), expect.data(), kRows * kCols * sizeof(float)),
            0);
}

}  // namespace
}  // namespace biq::engine
