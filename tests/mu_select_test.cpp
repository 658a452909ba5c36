#include <gtest/gtest.h>

#include <cmath>

#include "core/mu_select.hpp"

namespace biq {
namespace {

TEST(MuSelect, CostFactorFormula) {
  // (2^mu + m) / (m * mu), Eq. 9.
  EXPECT_DOUBLE_EQ(biqgemm_cost_factor(1024, 8), (256.0 + 1024.0) / (1024.0 * 8.0));
  EXPECT_DOUBLE_EQ(biqgemm_cost_factor(1, 1), 3.0);
}

TEST(MuSelect, SelectIsArgmin) {
  for (std::size_t m : {16u, 128u, 512u, 1024u, 4096u, 8192u}) {
    const unsigned best = select_mu(m, 16);
    const double best_cost = biqgemm_cost_factor(m, best);
    for (unsigned mu = 1; mu <= 16; ++mu) {
      EXPECT_LE(best_cost, biqgemm_cost_factor(m, mu) + 1e-15)
          << "m=" << m << " mu=" << mu;
    }
  }
}

TEST(MuSelect, OptimalMuGrowsWithOutputSize) {
  EXPECT_LE(select_mu(64), select_mu(1024));
  EXPECT_LE(select_mu(1024), select_mu(65536));
}

TEST(MuSelect, PaperScaleMatricesPreferMuNearEight) {
  // The paper empirically picks mu=8 for m in the 1K..8K range; the
  // Eq. 9 model should agree to within one step.
  for (std::size_t m : {1024u, 2048u, 4096u, 8192u}) {
    const unsigned mu = select_mu(m);
    EXPECT_GE(mu, 7u) << "m=" << m;
    EXPECT_LE(mu, 10u) << "m=" << m;
  }
}

TEST(MuSelect, RespectsMaxMuBound) {
  EXPECT_LE(select_mu(1 << 20, 6), 6u);
  EXPECT_EQ(select_mu(1024, 1), 1u);
}

TEST(CostModel, BuildOpsMatchEqSix) {
  // Tc,dp = (2^mu + mu - 1) * ceil(n/mu) * b
  EXPECT_DOUBLE_EQ(lut_build_ops(64, 2, 8), (256.0 + 7.0) * 8.0 * 2.0);
  // MM construction is ~mu x more expensive.
  EXPECT_GT(lut_build_ops_mm(64, 2, 8), 6.0 * lut_build_ops(64, 2, 8));
}

TEST(CostModel, QueryOpsMatchEqSeven) {
  // Tr = m * ceil(n/mu) * b * bits
  EXPECT_DOUBLE_EQ(lut_query_ops(1024, 64, 2, 8, 1), 1024.0 * 8.0 * 2.0);
  EXPECT_DOUBLE_EQ(lut_query_ops(1024, 64, 2, 8, 3), 3.0 * 1024.0 * 8.0 * 2.0);
  // Ragged n rounds the table count up.
  EXPECT_DOUBLE_EQ(lut_query_ops(10, 9, 1, 8, 1), 10.0 * 2.0);
}

TEST(CostModel, TotalApproachesGemmOverMuForLargeM) {
  // Eq. 10: when 2^mu << m, T ~ m*n*b / mu.
  const double total = biqgemm_total_ops(8192, 1024, 32, 8, 1);
  const double approx = gemm_total_ops(8192, 1024, 32, 1) / 8.0;
  EXPECT_NEAR(total / approx, 1.0, 0.05);
}

TEST(CostModel, BiqgemmModelBeatsGemmModelAtPaperShapes) {
  for (std::size_t m : {1024u, 2048u, 4096u}) {
    for (unsigned bits : {1u, 2u, 3u}) {
      const double biq = biqgemm_total_ops(m, 1024, 32, 8, bits);
      const double gemm = gemm_total_ops(m, 1024, 32, 1);  // fp32 GEMM
      if (bits < 8) {
        EXPECT_LT(biq, gemm) << "m=" << m << " bits=" << bits;
      }
    }
  }
}

TEST(CostModel, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(biqgemm_cost_factor(0, 8), 1.0);
  EXPECT_DOUBLE_EQ(lut_build_ops(0, 4, 8), 0.0);
  EXPECT_DOUBLE_EQ(lut_query_ops(0, 0, 0, 8), 0.0);
}

}  // namespace
}  // namespace biq
