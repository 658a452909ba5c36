#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "core/biqgemm.hpp"
#include "gemm/gemm_ref.hpp"
#include "quant/error.hpp"
#include "quant/greedy.hpp"
#include "quant/grouped.hpp"

namespace biq {
namespace {

TEST(GroupedQuant, WholeRowGroupEqualsPerRowGreedy) {
  Rng rng(1);
  Matrix w = Matrix::random_normal(6, 40, rng);
  const BinaryCodes row = quantize_greedy(w, 2);
  const GroupedBinaryCodes grouped = quantize_greedy_grouped(w, 2, 40);
  EXPECT_EQ(grouped.num_groups, 1u);
  EXPECT_NEAR(quant_mse(w, row.dequantize()), quant_mse(w, grouped.dequantize()),
              1e-10);
}

class GroupSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(GroupSizeSweep, SmallerGroupsNeverIncreaseError) {
  const auto group = static_cast<std::size_t>(GetParam());
  Rng rng(3);
  Matrix w = Matrix::random_normal(10, 128, rng);
  const double full = quant_mse(w, quantize_greedy_grouped(w, 2, 128).dequantize());
  const double part = quant_mse(w, quantize_greedy_grouped(w, 2, group).dequantize());
  // Greedy is per-segment optimal in its scale; finer segmentation can
  // only help (each sub-segment could at worst reuse the coarse scale).
  EXPECT_LE(part, full + 1e-9) << "group=" << group;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupSizeSweep, ::testing::Values(8, 16, 32, 64));

TEST(GroupedQuant, ErrorShrinksMonotonicallyWithFinerGroups) {
  Rng rng(5);
  Matrix w = Matrix::random_normal(8, 256, rng);
  double prev = 1e30;
  for (std::size_t group : {256u, 64u, 16u, 8u}) {
    const double err =
        quant_mse(w, quantize_greedy_grouped(w, 1, group).dequantize());
    EXPECT_LE(err, prev + 1e-9) << "group=" << group;
    prev = err;
  }
}

TEST(GroupedQuant, RaggedLastGroup) {
  Rng rng(7);
  Matrix w = Matrix::random_normal(4, 50, rng);  // 50 = 3*16 + 2
  const GroupedBinaryCodes codes = quantize_greedy_grouped(w, 2, 16);
  EXPECT_EQ(codes.num_groups, 4u);
  const Matrix recon = codes.dequantize();
  EXPECT_EQ(recon.rows(), 4u);
  EXPECT_EQ(recon.cols(), 50u);
  EXPECT_LT(quant_mse(w, recon), quant_mse(w, Matrix(4, 50)));
}

TEST(GroupedQuant, StorageAccountsGroupScales) {
  Rng rng(9);
  Matrix w = Matrix::random_normal(16, 128, rng);
  const GroupedBinaryCodes codes = quantize_greedy_grouped(w, 2, 32);
  // 2 planes * (16 rows * 16 bytes + 16 rows * 4 groups * 4 bytes)
  EXPECT_EQ(codes.packed_storage_bytes(), 2u * (16u * 16u + 16u * 4u * 4u));
}

TEST(GroupedQuant, ValidatesArguments) {
  Matrix w(2, 4);
  w(0, 0) = 1.0f;
  EXPECT_THROW(quantize_greedy_grouped(w, 0, 4), std::invalid_argument);
  EXPECT_THROW(quantize_greedy_grouped(w, 1, 0), std::invalid_argument);
}

// ---- grouped kernel ----

using GroupedCase = std::tuple<int, int, int, int, int>;  // m, n, b, group, bits

class GroupedKernelSweep : public ::testing::TestWithParam<GroupedCase> {};

TEST_P(GroupedKernelSweep, MatchesDequantizedReference) {
  const auto [m, n, b, group, bits] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 31 + n * 7 + b * 3 + group));
  Matrix w = Matrix::random_normal(m, n, rng);
  const GroupedBinaryCodes codes =
      quantize_greedy_grouped(w, static_cast<unsigned>(bits), group);
  Matrix x = Matrix::random_normal(n, b, rng);

  Matrix expected(m, b), actual(m, b);
  gemm_ref(codes.dequantize(), x, expected);

  BiqGemmOptions opt;
  opt.mu = 8;
  const BiqGemm kernel(codes, opt);
  kernel.run(x, actual);
  EXPECT_TRUE(allclose(actual, expected, 2e-3f, 2e-3f))
      << "m=" << m << " n=" << n << " b=" << b << " group=" << group
      << " maxdiff=" << max_abs_diff(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GroupedKernelSweep,
    ::testing::Values(GroupedCase{32, 64, 8, 16, 1},   // vector path
                      GroupedCase{32, 64, 8, 8, 2},    // group == mu
                      GroupedCase{48, 128, 12, 32, 2}, // partial batch tile
                      GroupedCase{16, 72, 3, 24, 1},   // ragged n, scalar lanes
                      GroupedCase{64, 256, 1, 64, 3},  // single column
                      GroupedCase{7, 40, 9, 8, 2}));   // odd everything

TEST(GroupedKernel, RequiresMuDividingGroup) {
  Rng rng(11);
  Matrix w = Matrix::random_normal(4, 32, rng);
  const GroupedBinaryCodes codes = quantize_greedy_grouped(w, 1, 12);
  BiqGemmOptions opt;
  opt.mu = 8;  // 12 % 8 != 0
  EXPECT_THROW(BiqGemm(codes, opt), std::invalid_argument);
}

TEST(GroupedKernel, RejectsMalformedGroupScales) {
  Rng rng(19);
  const GroupedBinaryCodes good =
      quantize_greedy_grouped(Matrix::random_normal(8, 64, rng), 2, 16);
  GroupedBinaryCodes per_row = good;  // rows floats, not rows * num_groups
  per_row.alphas.assign(2, std::vector<float>(8, 1.0f));
  EXPECT_THROW(BiqGemm(per_row, {}), std::invalid_argument);
  GroupedBinaryCodes miscounted = good;  // 64 / 16 needs 4 groups
  miscounted.num_groups = 2;
  miscounted.alphas.assign(2, std::vector<float>(16, 1.0f));
  EXPECT_THROW(BiqGemm(miscounted, {}), std::invalid_argument);
  GroupedBinaryCodes bad_plane = good;
  bad_plane.planes[0] = BinaryMatrix(8, 48);
  EXPECT_THROW(BiqGemm(bad_plane, {}), std::invalid_argument);
}

// One scale group is the per-row case: same planes, same alphas, so the
// grouped engine must take the plain path bit for bit, including the
// batch-1 GEMV. n = 512 gives 64 tables at mu 8, more than the default
// LUT tile holds on any plane, so the plain path chunks the tables.
TEST(GroupedKernel, OneGroupMatchesPlainBitwise) {
  const std::size_t m = 96, n = 512;
  Rng rng(23);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const GroupedBinaryCodes grouped = quantize_greedy_grouped(w, 2, n);
  ASSERT_EQ(grouped.num_groups, 1u);
  BinaryCodes plain;
  plain.rows = m;
  plain.cols = n;
  plain.bits = grouped.bits;
  plain.planes = grouped.planes;
  plain.alphas = grouped.alphas;

  const BiqGemm one_group(grouped, {});
  const BiqGemm per_row(plain, {});
  EXPECT_EQ(one_group.name(), "biqgemm-grouped");
  EXPECT_EQ(per_row.name(), "biqgemm");
  for (const std::size_t b : {std::size_t{1}, std::size_t{8}, std::size_t{17}}) {
    const Matrix x = Matrix::random_normal(n, b, rng);
    Matrix y_group(m, b), y_row(m, b);
    one_group.run(x, y_group);
    per_row.run(x, y_row);
    EXPECT_EQ(std::memcmp(y_group.data(), y_row.data(), m * b * sizeof(float)),
              0)
        << "b=" << b;
  }
}

TEST(GroupedKernel, FinerGroupsImproveOutputAccuracy) {
  Rng rng(13);
  Matrix w = Matrix::random_normal(64, 256, rng);
  Matrix x = Matrix::random_normal(256, 8, rng);
  Matrix exact(64, 8);
  gemm_ref(w, x, exact);

  auto output_error = [&](std::size_t group) {
    const GroupedBinaryCodes codes = quantize_greedy_grouped(w, 2, group);
    const BiqGemm kernel(codes, {});
    Matrix y(64, 8);
    kernel.run(x, y);
    return rel_fro_error(y, exact);
  };
  EXPECT_LT(output_error(16), output_error(256));
}

TEST(GroupedKernel, PackedBytesReflectGroupScaleOverhead) {
  Rng rng(17);
  Matrix w = Matrix::random_normal(32, 256, rng);
  const BiqGemm coarse(quantize_greedy_grouped(w, 1, 256), {});
  const BiqGemm fine(quantize_greedy_grouped(w, 1, 16), {});
  EXPECT_GT(fine.packed_weight_bytes(), coarse.packed_weight_bytes());
  EXPECT_EQ(fine.group_size(), 16u);
  EXPECT_EQ(coarse.bits(), 1u);
}

}  // namespace
}  // namespace biq
