// plan_stack (engine/gemm_engine.hpp): one plan over a row stack of
// engines that read the same x. Every part's row block must be bitwise
// what that engine's own plan writes, whether the stack shares its LUT
// builds (BiQGEMM parts that agree on mu, builder and chunk height) or
// runs its parts one after another (blocked, or BiQGEMM parts that do
// not agree) — on every plane this host runs, at any worker count.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/biqgemm.hpp"
#include "engine/dispatch.hpp"
#include "engine/registry.hpp"
#include "matrix/matrix.hpp"
#include "quant/greedy.hpp"
#include "quant/grouped.hpp"
#include "threading/thread_pool.hpp"
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

/// Rows of the three parts: none a multiple of 16, so batch-1 row
/// ranges and the query's row pairs cross part boundaries.
constexpr std::size_t kPartRows[] = {37, 24, 51};

std::vector<Matrix> part_weights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> w;
  for (const std::size_t m : kPartRows) {
    w.push_back(Matrix::random_normal(m, n, rng));
  }
  return w;
}

std::vector<std::vector<float>> part_biases(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> b;
  for (const std::size_t m : kPartRows) {
    const Matrix v = Matrix::random_normal(m, 1, rng);
    b.emplace_back(v.col(0), v.col(0) + m);
  }
  return b;
}

/// Runs the stack and each part's own plan on ctx and compares every
/// column of every part's row block with memcmp. `shared`: the stack is
/// one BiQGEMM recipe (it carries BiQGEMM's LUT prep), not its parts
/// run one after another (which carries none).
void expect_stack_matches_parts(const std::vector<StackPart>& parts,
                                std::size_t b, ExecContext& ctx,
                                const std::string& what, bool shared) {
  const std::size_t n = parts.front().engine->cols();
  std::size_t rows = 0;
  for (const StackPart& p : parts) rows += p.engine->rows();
  Rng rng(b * 977 + rows);
  const Matrix x = Matrix::random_normal(n, b, rng);
  Matrix y(rows, b);
  const auto stack = plan_stack(parts, b, ctx);
  ASSERT_EQ(stack->rows(), rows) << what;
  EXPECT_EQ(stack->prep_key().valid(), shared) << what;
  stack->run(x, y);
  stack->run(x, y);  // a second run rebinds the parts and must agree

  std::size_t row0 = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::size_t m = parts[p].engine->rows();
    Matrix ref(m, b);
    parts[p].engine->plan(b, ctx, parts[p].epilogue)->run(x, ref);
    for (std::size_t c = 0; c < b; ++c) {
      ASSERT_EQ(std::memcmp(y.col(c) + row0, ref.col(c), m * sizeof(float)),
                0)
          << what << ": part " << p << " column " << c << " of " << b;
    }
    row0 += m;
  }
}

std::vector<StackPart> parts_of(
    const std::vector<std::unique_ptr<GemmEngine>>& engines,
    const std::vector<std::vector<float>>* bias, EpilogueAct act) {
  std::vector<StackPart> parts;
  for (std::size_t p = 0; p < engines.size(); ++p) {
    Epilogue ep;
    ep.bias = bias != nullptr ? (*bias)[p].data() : nullptr;
    ep.act = act;
    parts.push_back({engines[p].get(), ep});
  }
  return parts;
}

/// Per-row, grouped and mixed BiQGEMM stacks at one mu: the grouped
/// parts' groups hold `group_tables` tables, and the per-row parts are
/// pinned to chunks of the same height so a mixed stack shares too.
struct BiqStacks {
  std::vector<std::unique_ptr<GemmEngine>> per_row, grouped, mixed;
};

BiqStacks biq_stacks(std::size_t n, unsigned mu, std::size_t group_tables) {
  const std::vector<Matrix> w = part_weights(n, 100 + mu);
  BiqGemmOptions opt;
  opt.mu = mu;
  opt.tables_per_tile = group_tables;
  BiqStacks s;
  for (std::size_t p = 0; p < w.size(); ++p) {
    const unsigned bits = 1 + static_cast<unsigned>(p % 3);
    const BinaryCodes codes = quantize_greedy(w[p], bits);
    const GroupedBinaryCodes gcodes =
        quantize_greedy_grouped(w[p], bits, group_tables * mu);
    s.per_row.push_back(std::make_unique<BiqGemm>(codes, opt));
    s.grouped.push_back(std::make_unique<BiqGemm>(gcodes, opt));
    if (p == 1) {
      s.mixed.push_back(std::make_unique<BiqGemm>(gcodes, opt));
    } else {
      s.mixed.push_back(std::make_unique<BiqGemm>(codes, opt));
    }
  }
  return s;
}

TEST(PlanStack, BiqStacksMatchSeparatePlansBitwise) {
  const auto bias = part_biases(5);
  ThreadPool pool2(2), pool3(3), pool4(4);
  ThreadPool* const pools[] = {nullptr, &pool2, &pool3, &pool4};
  for (const unsigned mu : {4u, 8u, 11u}) {
    // n leaves a ragged last table at every mu, and spans several groups.
    const std::size_t n = 4 * mu * 3 + 5;
    const BiqStacks s = biq_stacks(n, mu, 3);
    for (const KernelIsa isa : available_isas()) {
      for (ThreadPool* pool : pools) {
        ExecContext ctx(pool, isa);
        for (const std::size_t b : {1u, 3u, 17u, 33u, 128u}) {
          const std::string what =
              "mu " + std::to_string(mu) + " isa " +
              engine::select_plane(isa).isa + " workers " +
              std::to_string(ctx.worker_count()) + " b " + std::to_string(b);
          expect_stack_matches_parts(
              parts_of(s.per_row, nullptr, EpilogueAct::kNone), b, ctx,
              what + " per-row", true);
          expect_stack_matches_parts(
              parts_of(s.grouped, &bias, EpilogueAct::kNone), b, ctx,
              what + " grouped+bias", true);
          expect_stack_matches_parts(
              parts_of(s.mixed, &bias, EpilogueAct::kGelu), b, ctx,
              what + " mixed+bias+gelu", true);
        }
      }
    }
  }
}

// The encoder's Q/K/V shape at default options: three 512 x 512 engines
// pick one mu by themselves (6), so they stay one shared stack, and the
// stack's bits are the separate plans'.
TEST(PlanStack, DefaultOptionQkvStackMatchesSeparatePlansBitwise) {
  Rng rng(23);
  std::vector<std::unique_ptr<GemmEngine>> engines;
  for (int p = 0; p < 3; ++p) {
    const Matrix w = Matrix::random_normal(512, 512, rng);
    engines.push_back(std::make_unique<BiqGemm>(quantize_greedy(w, 2)));
    EXPECT_EQ(static_cast<const BiqGemm&>(*engines.back()).mu(), 6u);
  }
  const auto bias = [&] {
    std::vector<std::vector<float>> b;
    for (int p = 0; p < 3; ++p) {
      const Matrix v = Matrix::random_normal(512, 1, rng);
      b.emplace_back(v.col(0), v.col(0) + 512);
    }
    return b;
  }();
  ThreadPool pool2(2), pool4(4);
  for (const KernelIsa isa : available_isas()) {
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
      ExecContext ctx(pool, isa);
      for (const std::size_t b : {1u, 17u, 32u}) {
        expect_stack_matches_parts(
            parts_of(engines, &bias, EpilogueAct::kNone), b, ctx,
            std::string(engine::select_plane(isa).isa) + " workers " +
                std::to_string(ctx.worker_count()) + " b " + std::to_string(b),
            true);
      }
    }
  }
}

TEST(PlanStack, BlockedStackRunsItsPartsBitwise) {
  const std::vector<Matrix> w = part_weights(70, 9);
  const auto bias = part_biases(11);
  std::vector<std::unique_ptr<GemmEngine>> engines;
  for (const Matrix& wp : w) engines.push_back(make_engine("blocked", wp));
  ThreadPool pool(3);
  for (const KernelIsa isa : available_isas()) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      ExecContext ctx(p, isa);
      for (const std::size_t b : {1u, 3u, 17u, 33u, 128u}) {
        expect_stack_matches_parts(
            parts_of(engines, &bias, EpilogueAct::kTanh), b, ctx,
            std::string("blocked ") + engine::select_plane(isa).isa, false);
      }
    }
  }
}

TEST(PlanStack, StacksThatCannotShareStillMatchBitwise) {
  // Parts that disagree on mu, on the chunk height or on the engine run
  // one after another, with the same bits.
  const std::size_t n = 96;
  const std::vector<Matrix> w = part_weights(n, 21);
  BiqGemmOptions mu8, mu4, tall;
  mu8.mu = 8;
  mu4.mu = 4;
  tall.tables_per_tile = 2;
  std::vector<std::unique_ptr<GemmEngine>> engines;
  engines.push_back(
      std::make_unique<BiqGemm>(quantize_greedy(w[0], 2), mu8));
  engines.push_back(
      std::make_unique<BiqGemm>(quantize_greedy(w[1], 2), mu4));
  engines.push_back(
      std::make_unique<BiqGemm>(quantize_greedy(w[2], 2), tall));
  std::vector<std::unique_ptr<GemmEngine>> hybrid;
  hybrid.push_back(make_engine("blocked", w[0]));
  hybrid.push_back(
      std::make_unique<BiqGemm>(quantize_greedy(w[1], 1), mu8));
  ThreadPool pool(2);
  ExecContext ctx(&pool);
  for (const std::size_t b : {1u, 17u}) {
    expect_stack_matches_parts(parts_of(engines, nullptr, EpilogueAct::kNone),
                               b, ctx, "mixed mu and chunk heights", false);
    expect_stack_matches_parts(parts_of(hybrid, nullptr, EpilogueAct::kRelu),
                               b, ctx, "blocked then biqgemm", false);
  }
}

TEST(PlanStack, RejectsMalformedStacks) {
  const std::vector<Matrix> w = part_weights(32, 3);
  const auto a = make_engine("blocked", w[0]);
  const auto b = make_engine("blocked", w[1]);
  Rng rng(4);
  const auto wide = make_engine("blocked", Matrix::random_normal(8, 40, rng));
  ExecContext ctx;
  EXPECT_THROW((void)plan_stack({}, 4, ctx), std::invalid_argument);
  const StackPart null_part[] = {{a.get(), {}}, {nullptr, {}}};
  EXPECT_THROW((void)plan_stack(null_part, 4, ctx), std::invalid_argument);
  const StackPart ragged[] = {{a.get(), {}}, {wide.get(), {}}};
  EXPECT_THROW((void)plan_stack(ragged, 4, ctx), std::invalid_argument);
  Epilogue residual;
  residual.residual = true;
  const StackPart with_residual[] = {{a.get(), {}}, {b.get(), residual}};
  EXPECT_THROW((void)plan_stack(with_residual, 4, ctx),
               std::invalid_argument);
  const std::vector<float> gamma(w[1].rows(), 1.0f), beta(w[1].rows(), 0.0f);
  Epilogue ln;
  ln.ln_gamma = gamma.data();
  ln.ln_beta = beta.data();
  ln.ln_dim = w[1].rows();
  const StackPart with_ln[] = {{a.get(), {}}, {b.get(), ln}};
  EXPECT_THROW((void)plan_stack(with_ln, 4, ctx), std::invalid_argument);
}

}  // namespace
}  // namespace biq
