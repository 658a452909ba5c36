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

TEST(MuSelect, Eq9PickIsArgmin) {
  for (std::size_t m : {16u, 128u, 512u, 1024u, 4096u, 8192u}) {
    const unsigned best = eq9_mu(m, 16);
    const double best_cost = biqgemm_cost_factor(m, best);
    for (unsigned mu = 1; mu <= 16; ++mu) {
      EXPECT_LE(best_cost, biqgemm_cost_factor(m, mu) + 1e-15)
          << "m=" << m << " mu=" << mu;
    }
  }
}

TEST(MuSelect, Eq9MuGrowsWithOutputSize) {
  EXPECT_LE(eq9_mu(64), eq9_mu(1024));
  EXPECT_LE(eq9_mu(1024), eq9_mu(65536));
}

TEST(MuSelect, Eq9PrefersMuNearEightAtPaperScale) {
  // The paper empirically picks mu=8 for m in the 1K..8K range; the
  // Eq. 9 model should agree to within one step.
  for (std::size_t m : {1024u, 2048u, 4096u, 8192u}) {
    const unsigned mu = eq9_mu(m);
    EXPECT_GE(mu, 7u) << "m=" << m;
    EXPECT_LE(mu, 10u) << "m=" << m;
  }
}

TEST(MuSelect, Eq9RespectsMaxMuBound) {
  EXPECT_LE(eq9_mu(1 << 20, 6), 6u);
  EXPECT_EQ(eq9_mu(1024, 1), 1u);
}

TEST(MuSelect, RuleCostFormula) {
  // (w 2^mu + m q) / mu with w = 4.
  EXPECT_EQ(kLutEntryCost, 4u);
  EXPECT_DOUBLE_EQ(lut_unit_cost(512, 2, 6), (4.0 * 64.0 + 1024.0) / 6.0);
  EXPECT_DOUBLE_EQ(lut_unit_cost(2048, 1, 7), (4.0 * 128.0 + 2048.0) / 7.0);
}

TEST(MuSelect, RulePinsTheEncoderAndPaperShapes) {
  EXPECT_EQ(select_lut_unit(512, 1), 6u);   // tie with mu 5: the larger
  EXPECT_EQ(select_lut_unit(512, 2), 6u);
  EXPECT_EQ(select_lut_unit(2048, 1), 7u);
  EXPECT_EQ(select_lut_unit(2048, 2), 8u);
  EXPECT_EQ(select_lut_unit(4096, 1), 8u);
  EXPECT_EQ(select_lut_unit(4096, 2), 8u);
}

TEST(MuSelect, RuleIsTheArgminOverItsRangeTiesToTheLargerMu) {
  for (std::size_t m : {0u, 1u, 16u, 100u, 512u, 1000u, 2048u, 4096u,
                        1u << 20}) {
    for (unsigned bits = 1; bits <= 8; ++bits) {
      const unsigned mu = select_lut_unit(m, bits);
      ASSERT_GE(mu, kMinAutoMu) << "m=" << m << " bits=" << bits;
      ASSERT_LE(mu, kMaxAutoMu) << "m=" << m << " bits=" << bits;
      for (unsigned other = kMinAutoMu; other <= kMaxAutoMu; ++other) {
        const double picked = lut_unit_cost(m, bits, mu);
        const double cost = lut_unit_cost(m, bits, other);
        EXPECT_LE(picked, cost) << "m=" << m << " bits=" << bits;
        if (other > mu) {
          EXPECT_LT(picked, cost) << "tie not broken to the larger mu, m="
                                  << m << " bits=" << bits;
        }
      }
    }
  }
  EXPECT_EQ(select_lut_unit(1, 1), kMinAutoMu);
  EXPECT_EQ(select_lut_unit(1u << 20, 1), kMaxAutoMu);
}

TEST(MuSelect, GroupedRuleAdmitsOnlyDivisorsOfTheGroup) {
  EXPECT_EQ(select_lut_unit(512, 2, 64), 8u);   // 4 and 8 divide 64
  EXPECT_EQ(select_lut_unit(512, 2, 24), 6u);   // 4, 6 and 8 divide 24
  EXPECT_EQ(select_lut_unit(512, 2, 20), 5u);   // 4 and 5 divide 20
  EXPECT_EQ(select_lut_unit(512, 2, 7), 7u);
  EXPECT_EQ(select_lut_unit(512, 2, 0), select_lut_unit(512, 2));
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
