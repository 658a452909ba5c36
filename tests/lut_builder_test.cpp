#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/lut_builder.hpp"
#include "engine/dispatch.hpp"
#include "util/rng.hpp"

namespace biq {
namespace {

/// Independent oracle: literal M_mu . x with M_mu[k][j] = +1 iff bit
/// (mu-1-j) of k is set.
std::vector<float> oracle(const float* x, std::size_t len, unsigned mu) {
  std::vector<float> lut(std::size_t{1} << mu, 0.0f);
  for (std::size_t k = 0; k < lut.size(); ++k) {
    double acc = 0.0;
    for (unsigned j = 0; j < mu; ++j) {
      const float v = j < len ? x[j] : 0.0f;
      acc += ((k >> (mu - 1 - j)) & 1u) != 0 ? v : -v;
    }
    lut[k] = static_cast<float>(acc);
  }
  return lut;
}

class LutUnitSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(LutUnitSweep, DpMatchesOracle) {
  const unsigned mu = GetParam();
  Rng rng(mu);
  std::vector<float> x(mu);
  fill_normal(rng, x.data(), mu);
  std::vector<float> lut(std::size_t{1} << mu);
  build_lut_dp(x.data(), mu, mu, lut.data());
  const std::vector<float> expect = oracle(x.data(), mu, mu);
  for (std::size_t k = 0; k < lut.size(); ++k) {
    EXPECT_NEAR(lut[k], expect[k], 1e-4f) << "mu=" << mu << " k=" << k;
  }
}

TEST_P(LutUnitSweep, MmMatchesOracle) {
  const unsigned mu = GetParam();
  Rng rng(mu + 100);
  std::vector<float> x(mu);
  fill_normal(rng, x.data(), mu);
  std::vector<float> lut(std::size_t{1} << mu);
  build_lut_mm(x.data(), mu, mu, lut.data());
  const std::vector<float> expect = oracle(x.data(), mu, mu);
  for (std::size_t k = 0; k < lut.size(); ++k) {
    EXPECT_NEAR(lut[k], expect[k], 1e-4f);
  }
}

TEST_P(LutUnitSweep, ZeroPaddedTailMatchesOracle) {
  const unsigned mu = GetParam();
  if (mu == 1) GTEST_SKIP() << "no shorter tail exists for mu=1";
  const std::size_t len = mu - 1;
  Rng rng(mu + 200);
  std::vector<float> x(len);
  fill_normal(rng, x.data(), len);
  std::vector<float> lut(std::size_t{1} << mu);
  build_lut_dp(x.data(), len, mu, lut.data());
  const std::vector<float> expect = oracle(x.data(), len, mu);
  for (std::size_t k = 0; k < lut.size(); ++k) {
    EXPECT_NEAR(lut[k], expect[k], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(MuRange, LutUnitSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u));

TEST(LutBuilder, SymmetryHalves) {
  // q[k] == -q[2^mu - 1 - k] by construction (Fig. 4b, lines 8-9).
  const unsigned mu = 6;
  Rng rng(7);
  std::vector<float> x(mu);
  fill_normal(rng, x.data(), mu);
  std::vector<float> lut(64);
  build_lut_dp(x.data(), mu, mu, lut.data());
  for (std::size_t k = 0; k < 64; ++k) {
    EXPECT_FLOAT_EQ(lut[k], -lut[63 - k]);
  }
}

TEST(LutBuilder, PaperExampleIndexSix) {
  // Paper Fig. 5: key 6 = 0110b selects signs {-1, +1, +1, -1}.
  const float x[4] = {1.0f, 10.0f, 100.0f, 1000.0f};
  float lut[16];
  build_lut_dp(x, 4, 4, lut);
  EXPECT_FLOAT_EQ(lut[6], -1.0f + 10.0f + 100.0f - 1000.0f);
  EXPECT_FLOAT_EQ(lut[0], -1111.0f);
  EXPECT_FLOAT_EQ(lut[15], 1111.0f);
}

// Each kernel plane the host can run builds one batch tile at its own
// width (query_lanes); every lane must equal the single-column builder
// bit for bit (both run the same adds and negates in the same order).
// kAuto is the public build_lut_{dp,mm}_interleaved entry point.
class InterleavedPlaneSweep : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    if (GetParam() != KernelIsa::kAuto && !engine::isa_available(GetParam())) {
      GTEST_SKIP() << "plane not available on this host/build";
    }
  }

  /// Builds the tile on the plane under test and checks every lane
  /// against `single` run on that lane's column.
  template <typename Single>
  void expect_lanes_match(unsigned mu, std::uint64_t seed, Single single,
                          bool use_dp) {
    const engine::BiqKernels& plane = engine::select_kernels(GetParam());
    const std::size_t lanes = plane.query_lanes;
    Rng rng(seed);
    std::vector<float> xt(mu * lanes);
    fill_normal(rng, xt.data(), xt.size());
    std::vector<float> lut((std::size_t{1} << mu) * lanes);
    if (GetParam() == KernelIsa::kAuto) {
      (use_dp ? build_lut_dp_interleaved : build_lut_mm_interleaved)(
          xt.data(), mu, lut.data());
    } else {
      (use_dp ? plane.build_dp : plane.build_mm)(xt.data(), mu, lut.data());
    }

    std::vector<float> x(mu), ref(std::size_t{1} << mu);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (unsigned j = 0; j < mu; ++j) x[j] = xt[j * lanes + lane];
      single(x.data(), mu, mu, ref.data());
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(lut[k * lanes + lane], ref[k])
            << plane.isa << " lane=" << lane << " k=" << k;
      }
    }
  }
};

TEST_P(InterleavedPlaneSweep, DpInterleavedMatchesScalarPerLane) {
  expect_lanes_match(8, 3, build_lut_dp, /*use_dp=*/true);
}

TEST_P(InterleavedPlaneSweep, MmInterleavedMatchesScalarPerLane) {
  expect_lanes_match(5, 53, build_lut_mm, /*use_dp=*/false);
}

INSTANTIATE_TEST_SUITE_P(Planes, InterleavedPlaneSweep,
                         ::testing::Values(KernelIsa::kAuto,
                                           KernelIsa::kScalar,
                                           KernelIsa::kAvx2,
                                           KernelIsa::kAvx512));

TEST(LutBuilder, CostModelCounts) {
  // mu=4: 3 adds for the seed, 2^3-1=7 stage adds, 8 negations = 18.
  EXPECT_EQ(dp_build_adds(4), 18u);
  EXPECT_EQ(mm_build_macs(4), 64u);
  // DP is ~mu times cheaper, asymptotically.
  EXPECT_LT(dp_build_adds(8) * 4, mm_build_macs(8));
}

}  // namespace
}  // namespace biq
