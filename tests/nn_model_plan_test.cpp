// ModelPlan tests: the liveness planner's aliasing discipline, planned
// output vs the reference composition (nn_reference.hpp) for every
// supported model class, 1-vs-N-thread bitwise equality,
// replan-on-batch-change through ModelPlanCache, arena-packing pins,
// and the zero-allocation warm whole-model forward.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"
#include "nn_reference.hpp"

// Binary-wide instrumented operator new (same harness as
// exec_context_test): counts every scalar/array heap allocation so the
// warm whole-model zero-allocation guarantee can be asserted directly.
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

namespace biq::nn {
namespace {

TransformerConfig tiny() {
  TransformerConfig cfg;
  cfg.hidden = 32;
  cfg.ffn = 64;
  cfg.heads = 4;
  cfg.layers = 2;
  return cfg;
}

QuantSpec quant2() {
  QuantSpec spec;
  spec.weight_bits = 2;
  return spec;
}

// ------------------------------------------------------------ ModelPlanner

TEST(ModelPlanner, OverlappingLifetimesNeverShareMemory) {
  ModelPlanner planner;
  const ModelSlot a = planner.acquire(10, 3);
  const ModelSlot b = planner.acquire(7, 7);
  const ModelSlot c = planner.acquire(100, 1);
  // All three live: pairwise-disjoint [offset, offset+extent) intervals.
  const auto disjoint = [](const ModelSlot& s, const ModelSlot& t) {
    return s.offset() + s.extent() <= t.offset() ||
           t.offset() + t.extent() <= s.offset();
  };
  EXPECT_TRUE(disjoint(a, b));
  EXPECT_TRUE(disjoint(a, c));
  EXPECT_TRUE(disjoint(b, c));

  // Release a; a same-size acquire reuses its storage, and stays
  // disjoint from everything still live.
  planner.release(a);
  const ModelSlot d = planner.acquire(10, 3);
  EXPECT_EQ(d.offset(), a.offset());
  EXPECT_TRUE(disjoint(d, b));
  EXPECT_TRUE(disjoint(d, c));
  EXPECT_EQ(planner.peak_floats(), a.extent() + b.extent() + c.extent());
}

TEST(ModelPlanner, ReleasedNeighborsCoalesce) {
  ModelPlanner planner;
  ModelSlot a = planner.acquire(16, 1);
  ModelSlot b = planner.acquire(16, 1);
  ModelSlot c = planner.acquire(16, 1);
  const std::size_t peak = planner.peak_floats();
  planner.release(a);
  planner.release(c);
  planner.release(b);  // middle release must merge all three
  const ModelSlot big = planner.acquire(48, 1);
  EXPECT_EQ(big.offset(), 0u);
  EXPECT_EQ(planner.peak_floats(), peak);
}

TEST(ModelPlanner, BestFitPrefersSmallestHole) {
  ModelPlanner planner;
  ModelSlot big = planner.acquire(64, 1);
  const ModelSlot keep1 = planner.acquire(16, 1);
  ModelSlot small = planner.acquire(16, 1);
  const ModelSlot keep2 = planner.acquire(16, 1);
  planner.release(big);
  planner.release(small);
  // A 16-float tensor should land in the 16-float hole, not the 64.
  const ModelSlot fit = planner.acquire(16, 1);
  EXPECT_EQ(fit.offset(), small.offset());
  (void)keep1;
  (void)keep2;
}

TEST(ModelPlanner, RejectsSlotsWhoseArenaSizeOverflows) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  ModelPlanner planner;
  // rows * cols wraps to 0; the message names the shape.
  try {
    (void)planner.acquire(std::size_t{1} << 33, std::size_t{1} << 31);
    ADD_FAILURE() << "a wrapping rows * cols was accepted";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("8589934592 x 2147483648"),
              std::string::npos)
        << e.what();
  }
  // The float count fits a size_t, its byte count does not.
  EXPECT_THROW((void)planner.acquire(kMax / 2, 1), std::length_error);
  // Rounding up to the slot alignment would wrap.
  EXPECT_THROW((void)planner.acquire(kMax - 3, 1), std::length_error);
  // Each slot fits on its own; the arena grown by both does not.
  const ModelSlot half = planner.acquire(std::size_t{1} << 61, 1);
  EXPECT_THROW((void)planner.acquire(std::size_t{1} << 61, 1),
               std::length_error);
  // A rejected acquire leaves the layout as it was.
  EXPECT_EQ(planner.peak_floats(), half.extent());
  EXPECT_EQ(planner.total_acquired_floats(), half.extent());
}

TEST(ModelPlanner, FuzzedAcquireReleaseKeepsLiveSlotsDisjoint) {
  // Randomized lifetime sequences: at every step, no two live slots may
  // overlap, every offset is alignment-granular, and peak_floats() must
  // cover every live high-water mark. After a full drain, the free list
  // must have coalesced back to one interval spanning the whole layout.
  Rng rng(2020);
  for (int round = 0; round < 40; ++round) {
    ModelPlanner planner;
    std::vector<ModelSlot> live;
    std::size_t live_floats = 0;
    std::size_t high_water = 0;
    for (int op = 0; op < 200; ++op) {
      if (live.empty() || rng.next_below(3) != 0) {
        const std::size_t rows = 1 + rng.next_below(40);
        const std::size_t cols = 1 + rng.next_below(12);
        const ModelSlot slot = planner.acquire(rows, cols);
        ASSERT_EQ(slot.offset() % (kDefaultAlignment / sizeof(float)), 0u);
        ASSERT_GE(slot.extent(), rows * cols);
        for (const ModelSlot& other : live) {
          const bool disjoint =
              slot.offset() + slot.extent() <= other.offset() ||
              other.offset() + other.extent() <= slot.offset();
          ASSERT_TRUE(disjoint)
              << "round " << round << " op " << op << ": live slots overlap "
              << "([" << slot.offset() << ", " << slot.offset() + slot.extent()
              << ") vs [" << other.offset() << ", "
              << other.offset() + other.extent() << "))";
        }
        live.push_back(slot);
        live_floats += slot.extent();
        high_water = std::max(high_water, live_floats);
      } else {
        const std::size_t idx = rng.next_below(live.size());
        live_floats -= live[idx].extent();
        planner.release(live[idx]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
      ASSERT_GE(planner.peak_floats(), live_floats);
    }
    EXPECT_GE(planner.peak_floats(), high_water);
    for (const ModelSlot& slot : live) planner.release(slot);
    // Drained: one acquire of the whole peak must fit at offset 0
    // without growing the layout — anything else means the free list
    // failed to coalesce somewhere in the sequence.
    const std::size_t peak = planner.peak_floats();
    const ModelSlot all = planner.acquire(peak, 1);
    EXPECT_EQ(all.offset(), 0u);
    EXPECT_EQ(planner.peak_floats(), peak);
  }
}

// ------------------------------------------- planned vs reference

/// Compiles `build(spec)` at fp32 and 2-bit weights, batch 1 and
/// `batch`, on a serial context and on a 3-thread pool. Every planned
/// output must match the reference composition (nn_reference.hpp)
/// within tolerance, and the pooled run must equal the serial run
/// bitwise.
template <typename Build>
void check_against_reference(const Build& build, std::size_t batch,
                             const char* name) {
  ThreadPool pool(3);
  for (const bool quantized : {false, true}) {
    const auto model = build(quantized ? quant2() : QuantSpec{});
    for (const std::size_t b : {std::size_t{1}, batch}) {
      Rng rng(1000 + b);
      const Matrix x = Matrix::random_normal(model->in_rows(), b, rng);
      const Matrix ref = reference::forward(*model, x);
      const std::size_t out_rows = model->out_shape({x.rows(), b}).rows;
      Matrix serial(out_rows, b), pooled(out_rows, b);
      ExecContext serial_ctx, pooled_ctx(&pool);
      ModelPlan(*model, b, serial_ctx).run(x, serial);
      ModelPlan(*model, b, pooled_ctx).run(x, pooled);
      const std::string what = std::string(name) +
                               (quantized ? " 2-bit" : " fp32") +
                               " b=" + std::to_string(b);
      reference::expect_matches_reference(serial, ref, what.c_str());
      EXPECT_EQ(max_abs_diff(pooled, serial), 0.0f) << what << " pooled";
    }
  }
}

TEST(ModelPlan, EncoderMatchesReference) {
  check_against_reference(
      [](const QuantSpec& spec) {
        return std::make_unique<TransformerEncoder>(
            make_encoder(tiny(), 42, spec));
      },
      6, "encoder");
}

TEST(ModelPlan, BiLstmMatchesReference) {
  check_against_reference(
      [](const QuantSpec& spec) {
        return std::make_unique<BiLstm>(make_lstm_cell(12, 8, 31, spec),
                                        make_lstm_cell(12, 8, 32, spec));
      },
      7, "bilstm");
}

TEST(ModelPlan, LstmMatchesReference) {
  check_against_reference(
      [](const QuantSpec& spec) {
        return std::make_unique<Lstm>(make_lstm_cell(10, 6, 9, spec));
      },
      5, "lstm");
}

TEST(ModelPlan, AttentionMatchesReference) {
  check_against_reference(
      [](const QuantSpec& spec) {
        // Biased projections: the bias must ride every plan's epilogue.
        Rng wrng(17);
        auto proj = [&] {
          return make_linear(xavier_uniform(32, 32, wrng),
                             std::vector<float>(32, 0.1f), spec.weight_bits);
        };
        return std::make_unique<MultiHeadAttention>(proj(), proj(), proj(),
                                                    proj(), 4);
      },
      5, "attention");
}

std::unique_ptr<FeedForward> make_ffn(const QuantSpec& spec,
                                      std::uint64_t seed) {
  Rng wrng(seed);
  return std::make_unique<FeedForward>(
      make_linear(xavier_uniform(64, 32, wrng), std::vector<float>(64, 0.2f),
                  spec.weight_bits),
      make_linear(xavier_uniform(32, 64, wrng), std::vector<float>(32, -0.1f),
                  spec.weight_bits),
      Act::kGelu);
}

TEST(ModelPlan, FeedForwardMatchesReference) {
  check_against_reference(
      [](const QuantSpec& spec) { return make_ffn(spec, 18); }, 6, "ffn");
}

TEST(ModelPlan, ResidualMatchesReferenceFusedAndUnfused) {
  // Residual(FFN) folds the add into the down projection's epilogue;
  // Residual(Sequential) cannot (a Sequential takes no fusion), so it
  // compiles the separate-add fallback step.
  check_against_reference(
      [](const QuantSpec& spec) {
        return std::make_unique<Residual>(make_ffn(spec, 19));
      },
      6, "residual(ffn)");
  check_against_reference(
      [](const QuantSpec& spec) {
        Rng wrng(20);
        auto seq = std::make_unique<Sequential>();
        seq->add(make_linear(xavier_uniform(24, 32, wrng),
                             std::vector<float>(24, 0.3f), spec.weight_bits));
        seq->add(std::make_unique<Activation>(24, Act::kTanh));
        seq->add(make_linear(xavier_uniform(32, 24, wrng), {},
                             spec.weight_bits));
        return std::make_unique<Residual>(std::move(seq));
      },
      6, "residual(sequential)");
}

TEST(ModelPlan, StandaloneActivationAndLayerNormMatchReference) {
  // Behind a BiLstm (which takes no fusion) the Activation and the
  // LayerNorm compile to their own element-wise / per-column steps.
  check_against_reference(
      [](const QuantSpec& spec) {
        auto seq = std::make_unique<Sequential>();
        seq->add(std::make_unique<BiLstm>(make_lstm_cell(12, 8, 33, spec),
                                          make_lstm_cell(12, 8, 34, spec)));
        seq->add(std::make_unique<Activation>(16, Act::kRelu));
        auto ln = std::make_unique<LayerNorm>(16);
        for (std::size_t i = 0; i < 16; ++i) {
          ln->gamma()[i] = 0.5f + 0.1f * static_cast<float>(i);
          ln->beta()[i] = 0.05f * static_cast<float>(i);
        }
        seq->add(std::move(ln));
        return seq;
      },
      5, "bilstm->act->ln");
}

TEST(ModelPlan, EncoderArenaIsPinned) {
  // The tiny encoder's packed arena at batch 8, in bytes: both
  // residual→LN seams ride the sub-blocks' output projections (no
  // layer-wide residual slot). No step asks its engine for anything, so
  // the 2-bit build plans exactly the fp32 slots.
  ExecContext ctx;
  const TransformerEncoder fp = make_encoder(tiny(), 42, {});
  const TransformerEncoder q = make_encoder(tiny(), 42, quant2());
  EXPECT_EQ(ModelPlan(fp, 8, ctx).arena_bytes(), 5376u);
  EXPECT_EQ(ModelPlan(q, 8, ctx).arena_bytes(), 5376u);
}

std::size_t align16(std::size_t floats) {
  return (floats + 15) / std::size_t{16} * 16;
}

TEST(ModelPlan, AttentionArenaIsTheClosedForm) {
  // AttentionStep's slot program (hidden h, tokens T, extents E(.)
  // rounded up to 16 floats): the stacked q/k/v block (3h x T, written
  // by one plan), scores and context are acquired in that order and all
  // live until the step's end, so the peak is their sum:
  // E(3·h·T) + E(h·T) + E(T·T). x and y belong to the caller.
  const std::size_t hidden = 24, tokens = 5;
  for (const QuantSpec& spec : {QuantSpec{}, quant2()}) {
    Rng wrng(57);
    auto proj = [&] {
      return make_linear(xavier_uniform(hidden, hidden, wrng), {},
                         spec.weight_bits);
    };
    const MultiHeadAttention mha(proj(), proj(), proj(), proj(), 4);
    ExecContext ctx;
    EXPECT_EQ(ModelPlan(mha, tokens, ctx).arena_floats(),
              align16(3 * hidden * tokens) + align16(hidden * tokens) +
                  align16(tokens * tokens))
        << spec.weight_bits << "-bit";
  }
}

TEST(ModelPlan, BiLstmArenaIsTheClosedForm) {
  // plan_scan acquires gx (4h x T: every frame's input projection), gh
  // (4h x 1), h and c (h x 1 each), then releases all four; the freed
  // intervals coalesce into one hole at offset 0. The backward scan's
  // acquires best-fit into that hole in the same order, so the two
  // directions share storage and the peak is one scan's:
  // E(4h·T) + E(4h) + 2·E(h).
  const std::size_t in = 10, hidden = 6, frames = 7;
  for (const QuantSpec& spec : {QuantSpec{}, quant2()}) {
    const BiLstm bilstm(make_lstm_cell(in, hidden, 71, spec),
                        make_lstm_cell(in, hidden, 72, spec));
    ExecContext ctx;
    EXPECT_EQ(ModelPlan(bilstm, frames, ctx).arena_floats(),
              align16(4 * hidden * frames) + align16(4 * hidden) +
                  2 * align16(hidden))
        << spec.weight_bits << "-bit";
  }
}

TEST(ModelPlan, RejectsBatchesWhoseArenaSizeOverflows) {
  // The 16 x 2^60 seam between the two projections has 2^64 floats,
  // which wraps a size_t; compiling must fail rather than plan an empty
  // arena.
  Rng wrng(58);
  Sequential seq;
  seq.add(make_linear(xavier_uniform(16, 16, wrng), {}, 0));
  seq.add(make_linear(xavier_uniform(16, 16, wrng), {}, 0));
  ExecContext ctx;
  EXPECT_THROW(ModelPlan(seq, std::size_t{1} << 60, ctx), std::length_error);
}

TEST(ModelPlan, ChainFoldsLinearActivationAndDropsTheSlot) {
  // Sequential{Linear, Activation, Linear}: the peephole folds the
  // Activation into the first Linear's GEMM epilogue, so the
  // intermediate between them never exists — the only slot left is the
  // 24 x 5 seam between the two projections (rounded up to 512 bytes).
  const std::size_t in = 20, mid = 24, out = 16, batch = 5;
  Rng rng(33), wrng(34);
  const Matrix x = Matrix::random_normal(in, batch, rng);
  for (const bool quantized : {false, true}) {
    ExecContext ctx;
    const QuantSpec spec = quantized ? quant2() : QuantSpec{};
    Sequential seq;
    seq.add(make_linear(xavier_uniform(mid, in, wrng),
                        std::vector<float>(mid, 0.25f), spec.weight_bits));
    seq.add(std::make_unique<Activation>(mid, Act::kGelu));
    seq.add(make_linear(xavier_uniform(out, mid, wrng),
                        std::vector<float>(out, -0.5f), spec.weight_bits));

    const ModelPlan plan(seq, batch, ctx);
    Matrix y(out, batch);
    plan.run(x, y);
    reference::expect_matches_reference(y, reference::forward(seq, x),
                                        quantized ? "2-bit" : "fp32");
    EXPECT_EQ(plan.arena_bytes(), 512u);
    EXPECT_EQ(plan.unpacked_floats(), 128u);
  }
}

TEST(PlannableModule, PlanIntoThrowsForAFoldTheModuleRefuses) {
  // plan_into makes the one supports_fusion check: an Lstm folds
  // nothing, a Residual's own add already holds the residual seat, and
  // a LayerNorm fold must match the producer's output rows.
  ExecContext ctx;
  ModelPlanner planner;
  ModulePlanContext mpc(planner, ctx, 4);
  const Epilogue act{.act = Act::kTanh};
  const Epilogue add{.residual = true};

  const Lstm lstm(make_lstm_cell(12, 8, 35, QuantSpec{}));
  EXPECT_FALSE(lstm.supports_fusion(act));
  EXPECT_THROW((void)lstm.plan_into(mpc, act), std::logic_error);
  EXPECT_NE(lstm.plan_into(mpc), nullptr);

  const Residual residual(make_ffn(QuantSpec{}, 36));
  EXPECT_FALSE(residual.supports_fusion(add));
  EXPECT_THROW((void)residual.plan_into(mpc, add), std::logic_error);
  EXPECT_NE(residual.plan_into(mpc, act), nullptr);

  Rng wrng(37);
  const auto linear = make_linear(xavier_uniform(16, 12, wrng), {}, 0);
  const LayerNorm wrong(12), right(16);
  EXPECT_THROW((void)linear->plan_into(mpc, wrong.fold()), std::logic_error);
  EXPECT_NE(linear->plan_into(mpc, right.fold()), nullptr);
  const Epilogue split = right.fold({}, /*split_dst=*/true);
  EXPECT_THROW((void)linear->plan_into(mpc, split), std::logic_error);
}

TEST(PlannableModule, ForwardRunsAOneShotPlanAndCachesNothing) {
  // forward(x, y, ctx) is ModelPlan(*this, b, ctx).run(x, y) — the same
  // bits — and holds no plan afterwards: the context's model blocks are
  // all returned.
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 42, quant2());
  Rng rng(35);
  const Matrix x = Matrix::random_normal(32, 6, rng);
  Matrix y(32, 6), planned(32, 6);
  enc.forward(x, y, ctx);
  EXPECT_EQ(ctx.model_block_bytes(), 0u);
  ModelPlan(enc, 6, ctx).run(x, planned);
  EXPECT_EQ(max_abs_diff(y, planned), 0.0f);
  Matrix y_default(32, 6);
  enc.forward(x, y_default);  // the calling thread's default context
  EXPECT_EQ(max_abs_diff(y_default, planned), 0.0f);
  Matrix wrong(32, 5);
  EXPECT_THROW(enc.forward(x, wrong, ctx), std::invalid_argument);
}

// --------------------------------------------------- shapes and replan

TEST(ModelPlan, RejectsMismatchedShapes) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 1, {});
  const ModelPlan plan(enc, 4, ctx);
  Matrix x(32, 4), y(32, 4);
  Matrix wrong_batch(32, 5), wrong_rows(16, 4);
  EXPECT_THROW(plan.run(wrong_batch, y), std::invalid_argument);
  EXPECT_THROW(plan.run(x, wrong_batch), std::invalid_argument);
  EXPECT_THROW(plan.run(wrong_rows, y), std::invalid_argument);
  EXPECT_NO_THROW(plan.run(x, y));
}

TEST(ModelPlanCache, ReplansOnBatchChangeOnly) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 23, quant2());
  ModelPlanCache<TransformerEncoder> cache;

  Rng rng(7);
  for (const std::size_t tokens : {4u, 4u, 9u, 4u}) {
    const Matrix x = Matrix::random_normal(32, tokens, rng);
    Matrix fresh(32, tokens);
    ModelPlan(enc, tokens, ctx).run(x, fresh);
    Matrix cached(32, tokens);
    cache.run(enc, x, cached, ctx);
    ASSERT_NE(cache.plan(), nullptr);
    EXPECT_EQ(cache.plan()->batch(), tokens);
    EXPECT_EQ(max_abs_diff(cached, fresh), 0.0f) << "tokens=" << tokens;
  }
}

TEST(ModelPlanCache, ReplansWhenTheModelChanges) {
  // Two models with the same shapes and batch: the cache must key on
  // the model identity, not just (batch, context).
  ExecContext ctx;
  const TransformerEncoder a = make_encoder(tiny(), 7, {});
  const TransformerEncoder b = make_encoder(tiny(), 8, {});
  ModelPlanCache<TransformerEncoder> cache;

  Rng rng(14);
  const Matrix x = Matrix::random_normal(32, 4, rng);
  Matrix ya(32, 4), yb(32, 4);
  cache.run(a, x, ya, ctx);
  cache.run(b, x, yb, ctx);

  Matrix fresh_b(32, 4);
  ModelPlan(b, 4, ctx).run(x, fresh_b);
  EXPECT_EQ(max_abs_diff(yb, fresh_b), 0.0f)
      << "cache served model a's stale plan for model b";
  EXPECT_GT(max_abs_diff(ya, yb), 1e-3f);
}

TEST(ModelPlanCache, SamePlanServesRepeatedBatches) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 23, {});
  ModelPlanCache<TransformerEncoder> cache;
  Rng rng(8);
  const Matrix x = Matrix::random_normal(32, 3, rng);
  Matrix y(32, 3);
  cache.run(enc, x, y, ctx);
  const ModelPlan* first = cache.plan();
  cache.run(enc, x, y, ctx);
  EXPECT_EQ(cache.plan(), first);  // no replan on a repeated batch width
}

// ------------------------------------------------------- arena packing

TEST(ModelPlan, LivenessPackingBeatsUnpackedLayout) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 51, {});
  const ModelPlan plan(enc, 8, ctx);
  // Two layers' tensors fold into one layer's working set (plus: within
  // a layer the FFN intermediate reuses the attention scratch).
  EXPECT_LT(plan.arena_floats(), plan.unpacked_floats() / 2);
  EXPECT_GT(plan.arena_floats(), 0u);
  EXPECT_EQ(plan.arena_bytes(), plan.arena_floats() * sizeof(float));
}

TEST(ModelPlan, CoexistingPlansUseDisjointArenaBlocks) {
  // Two plans compiled on one context must not alias each other's
  // activation slots (one model block per plan).
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 77, quant2());
  const ModelPlan plan_a(enc, 4, ctx);
  const ModelPlan plan_b(enc, 4, ctx);
  Rng rng(9);
  const Matrix x = Matrix::random_normal(32, 4, rng);
  Matrix ya(32, 4), yb(32, 4);
  plan_a.run(x, ya);
  plan_b.run(x, yb);  // must not corrupt plan_a's state
  Matrix ya2(32, 4);
  plan_a.run(x, ya2);
  EXPECT_EQ(max_abs_diff(ya, ya2), 0.0f);
  EXPECT_EQ(max_abs_diff(ya, yb), 0.0f);
}

TEST(ModelPlan, DestroyedPlansReturnTheirArenaBlocks) {
  // Block lifetime equals plan lifetime: replanning on shape changes
  // must not grow the context's model-block footprint unboundedly.
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 5, {});
  EXPECT_EQ(ctx.model_block_bytes(), 0u);
  {
    const ModelPlan plan_a(enc, 4, ctx);
    EXPECT_EQ(ctx.model_block_bytes(), plan_a.arena_bytes());
    const ModelPlan plan_b(enc, 9, ctx);
    EXPECT_EQ(ctx.model_block_bytes(),
              plan_a.arena_bytes() + plan_b.arena_bytes());
  }
  EXPECT_EQ(ctx.model_block_bytes(), 0u);

  // LRU cache, capacity 1: every batch flip evicts (and frees) the
  // previous plan, so the flip sequence ends with exactly one live
  // block — the old single-plan cache behavior as the degenerate case.
  ModelPlanCache<TransformerEncoder> cache(1);
  Rng rng(15);
  for (const std::size_t tokens : {4u, 9u, 4u, 9u, 4u}) {
    const Matrix x = Matrix::random_normal(32, tokens, rng);
    Matrix y(32, tokens);
    cache.run(enc, x, y, ctx);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(ctx.model_block_bytes(), cache.plan()->arena_bytes());
}

TEST(ModelPlanCache, KeepsAPlanPerBatchWidthUpToCapacity) {
  // The default capacity retains every width seen so far: batch flips
  // stop replanning once each width's plan exists, and the context's
  // footprint is the sum of the cached plans — bounded by capacity.
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 5, {});
  ModelPlanCache<TransformerEncoder> cache;
  Rng rng(16);
  for (const std::size_t tokens : {4u, 9u, 4u, 9u, 4u}) {
    const Matrix x = Matrix::random_normal(32, tokens, rng);
    Matrix y(32, tokens);
    cache.run(enc, x, y, ctx);
  }
  EXPECT_EQ(cache.size(), 2u);
  const ModelPlan* plan4 = cache.plan();  // MRU: last run was batch 4
  ASSERT_NE(plan4, nullptr);
  EXPECT_EQ(plan4->batch(), 4u);
  const ModelPlan& plan9 = cache.plan_for(enc, 9, ctx);
  EXPECT_EQ(cache.size(), 2u);  // a hit, not a third plan
  EXPECT_EQ(ctx.model_block_bytes(),
            plan4->arena_bytes() + plan9.arena_bytes());
  // Re-requesting a cached width serves the identical plan object.
  EXPECT_EQ(&cache.plan_for(enc, 4, ctx), plan4);
}

TEST(ModelPlanCache, EvictsTheLeastRecentlyUsedPlanAtCapacity) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 5, {});
  ModelPlanCache<TransformerEncoder> cache(2);
  EXPECT_EQ(cache.capacity(), 2u);

  const ModelPlan* plan3 = &cache.plan_for(enc, 3, ctx);
  const ModelPlan* plan5 = &cache.plan_for(enc, 5, ctx);
  // Touch batch 3 so batch 5 becomes the LRU victim.
  EXPECT_EQ(&cache.plan_for(enc, 3, ctx), plan3);
  const ModelPlan* plan7 = &cache.plan_for(enc, 7, ctx);
  EXPECT_EQ(cache.size(), 2u);
  // Batch 3 must have survived (identical object); batch 5 was evicted,
  // its arena block freed — the footprint is exactly the two survivors.
  EXPECT_EQ(&cache.plan_for(enc, 3, ctx), plan3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(ctx.model_block_bytes(),
            plan3->arena_bytes() + plan7->arena_bytes());
  (void)plan5;  // dangling after eviction; only its identity mattered
}

// ------------------------------------------- zero-alloc warm forward

TEST(ModelPlan, WarmEncoderForwardPerformsZeroHeapAllocations) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 42, quant2());
  Rng rng(10);
  const Matrix x = Matrix::random_normal(32, 6, rng);
  Matrix y(32, 6);

  const ModelPlan plan(enc, 6, ctx);
  plan.run(x, y);  // first run grows the engines' scratch arenas
  plan.run(x, y);  // second consolidates overflow blocks
  const std::size_t arena_warm = ctx.scratch_heap_allocations();
  const std::size_t new_warm = g_new_calls.load();
  for (int rep = 0; rep < 8; ++rep) plan.run(x, y);
  EXPECT_EQ(ctx.scratch_heap_allocations(), arena_warm)
      << "warm ModelPlan::run grew a scratch arena";
  EXPECT_EQ(g_new_calls.load(), new_warm)
      << "warm ModelPlan::run allocated on the heap";
}

TEST(ModelPlan, WarmLnFusedColumnBarrierPathPerformsZeroHeapAllocations) {
  // The column-granular LN stage specifically: barrier counters live in
  // the frozen plan and the normalize runs in whichever worker retires
  // a column's last row tile — none of it may touch the heap once warm,
  // serial or tile-parallel.
  ThreadPool pool(3);
  ExecContext ctx(&pool);
  const TransformerEncoder enc = make_encoder(tiny(), 42, quant2());
  Rng rng(43);
  const Matrix x = Matrix::random_normal(32, 48, rng);
  Matrix y(32, 48);

  const ModelPlan plan(enc, 48, ctx);
  plan.run(x, y);  // first run grows the engines' scratch arenas
  plan.run(x, y);  // second consolidates overflow blocks
  const std::size_t arena_warm = ctx.scratch_heap_allocations();
  const std::size_t new_warm = g_new_calls.load();
  for (int rep = 0; rep < 8; ++rep) plan.run(x, y);
  EXPECT_EQ(ctx.scratch_heap_allocations(), arena_warm)
      << "warm LN-fused ModelPlan::run grew a scratch arena";
  EXPECT_EQ(g_new_calls.load(), new_warm)
      << "warm LN-fused column-barrier path allocated on the heap";
}

TEST(ModelPlan, WarmBiLstmForwardPerformsZeroHeapAllocations) {
  const std::size_t in = 24, hidden = 16, frames = 6;
  ExecContext ctx;
  const BiLstm model(make_lstm_cell(in, hidden, 61, quant2()),
                     make_lstm_cell(in, hidden, 62, quant2()));
  Rng rng(11);
  const Matrix x = Matrix::random_normal(in, frames, rng);
  Matrix y(2 * hidden, frames);

  const ModelPlan plan(model, frames, ctx);
  plan.run(x, y);
  plan.run(x, y);
  const std::size_t arena_warm = ctx.scratch_heap_allocations();
  const std::size_t new_warm = g_new_calls.load();
  for (int rep = 0; rep < 8; ++rep) plan.run(x, y);
  EXPECT_EQ(ctx.scratch_heap_allocations(), arena_warm)
      << "warm BiLSTM ModelPlan::run grew a scratch arena";
  EXPECT_EQ(g_new_calls.load(), new_warm)
      << "warm BiLSTM ModelPlan::run allocated on the heap";
}

// ------------------------------------- hybrid / stacked module trees

/// Encoder stack -> BiLSTM -> Linear head: the 3-level hybrid that only
/// the generic module walker can compile (no per-model walkers remain).
Sequential make_hybrid(const QuantSpec& spec, std::size_t classes) {
  const std::size_t hidden = tiny().hidden, lstm_hidden = 8;
  Sequential hybrid;
  hybrid.add(std::make_unique<TransformerEncoder>(
      make_encoder(tiny(), 42, spec)));
  hybrid.add(std::make_unique<BiLstm>(
      make_lstm_cell(hidden, lstm_hidden, 31, spec),
      make_lstm_cell(hidden, lstm_hidden, 32, spec)));
  Rng wrng(13);
  const Matrix head_w = xavier_uniform(classes, 2 * lstm_hidden, wrng);
  hybrid.add(make_linear(head_w, std::vector<float>(classes, 0.1f),
                         spec.weight_bits, spec.method, spec.kernel));
  return hybrid;
}

TEST(ModelPlan, SequentialHybridMatchesReference) {
  const std::size_t classes = 10;
  const Sequential shape_probe = make_hybrid({}, classes);
  EXPECT_EQ(shape_probe.size(), 3u);
  EXPECT_EQ(shape_probe.in_rows(), tiny().hidden);
  EXPECT_EQ(shape_probe.out_shape({tiny().hidden, 6}).rows, classes);
  check_against_reference(
      [&](const QuantSpec& spec) {
        return std::make_unique<Sequential>(make_hybrid(spec, classes));
      },
      6, "encoder->bilstm->head");
}

TEST(ModelPlan, SequentialHybridArenaMatchesItsFp32Twin) {
  ExecContext ctx;
  const Sequential fp = make_hybrid({}, 10);
  const Sequential q = make_hybrid(quant2(), 10);
  EXPECT_EQ(ModelPlan(q, 6, ctx).arena_bytes(),
            ModelPlan(fp, 6, ctx).arena_bytes());
}

TEST(ModelPlan, WarmSequentialHybridForwardPerformsZeroHeapAllocations) {
  const std::size_t tokens = 6, classes = 10;
  ExecContext ctx;
  const Sequential hybrid = make_hybrid(quant2(), classes);
  Rng rng(22);
  const Matrix x = Matrix::random_normal(tiny().hidden, tokens, rng);
  Matrix y(classes, tokens);

  const ModelPlan plan(hybrid, tokens, ctx);
  plan.run(x, y);  // first run grows the engines' scratch arenas
  plan.run(x, y);  // second consolidates overflow blocks
  const std::size_t arena_warm = ctx.scratch_heap_allocations();
  const std::size_t new_warm = g_new_calls.load();
  for (int rep = 0; rep < 8; ++rep) plan.run(x, y);
  EXPECT_EQ(ctx.scratch_heap_allocations(), arena_warm)
      << "warm hybrid ModelPlan::run grew a scratch arena";
  EXPECT_EQ(g_new_calls.load(), new_warm)
      << "warm hybrid ModelPlan::run allocated on the heap";
}

TEST(ModelPlan, BiLstmPyramidCompilesThroughTheGenericWalker) {
  // 4-deep stacked BiLSTM pyramid (the LAS encoder shape): each level's
  // 2h output feeds the next level's input through chain slots.
  const auto build = [](const QuantSpec& spec) {
    auto pyramid = std::make_unique<Sequential>();
    std::size_t rows = 12;
    std::uint64_t seed = 100;
    for (const std::size_t h : {8, 6, 4, 3}) {
      pyramid->add(std::make_unique<BiLstm>(
          make_lstm_cell(rows, h, seed, spec),
          make_lstm_cell(rows, h, seed + 1, spec)));
      seed += 2;
      rows = 2 * h;
    }
    return pyramid;
  };
  check_against_reference(build, 7, "bilstm pyramid");
  ExecContext ctx;
  const auto pyramid = build(quant2());
  EXPECT_EQ(pyramid->out_shape({12, 7}).rows, 6u);
  // Chain slots and scan state reuse storage across the levels.
  const ModelPlan plan(*pyramid, 7, ctx);
  EXPECT_LT(plan.arena_floats(), plan.unpacked_floats());
}

TEST(ModelPlan, ZeroLayerEncoderCompilesToTheIdentityCopy) {
  // An empty chain is the identity map.
  TransformerConfig cfg = tiny();
  cfg.layers = 0;
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(cfg, 1, {});
  Rng rng(24);
  const Matrix x = Matrix::random_normal(32, 4, rng);
  Matrix planned(32, 4);
  const ModelPlan plan(enc, 4, ctx);
  plan.run(x, planned);
  EXPECT_EQ(max_abs_diff(planned, x), 0.0f);
}

TEST(Sequential, RejectsMismatchedSeams) {
  ExecContext ctx;
  Sequential seq;
  seq.add(std::make_unique<BiLstm>(make_lstm_cell(12, 8, 1, {}),
                                   make_lstm_cell(12, 8, 2, {})));
  // Tail produces 16 rows; a 12-row consumer must be rejected at add().
  EXPECT_THROW(
      seq.add(std::make_unique<BiLstm>(make_lstm_cell(12, 8, 3, {}),
                                       make_lstm_cell(12, 8, 4, {}))),
      std::invalid_argument);
  // And an empty pipeline cannot be compiled.
  Sequential empty;
  EXPECT_THROW(ModelPlan(empty, 4, ctx), std::invalid_argument);
}

// ------------------------------------------- zero-alloc (tile-parallel)

TEST(ModelPlan, WarmTileParallelEncoderForwardPerformsZeroHeapAllocations) {
  // Same pin with a pool bound to the context: the partitioner's
  // dispatch and every engine's tile path must stay allocation-free
  // inside the whole-model plan too.
  ThreadPool pool(3);
  ExecContext ctx(&pool);
  const TransformerEncoder enc = make_encoder(tiny(), 42, quant2());
  Rng rng(12);
  const Matrix x = Matrix::random_normal(32, 48, rng);
  Matrix y(32, 48);

  const ModelPlan plan(enc, 48, ctx);
  plan.run(x, y);
  plan.run(x, y);
  const std::size_t arena_warm = ctx.scratch_heap_allocations();
  const std::size_t new_warm = g_new_calls.load();
  for (int rep = 0; rep < 4; ++rep) plan.run(x, y);
  EXPECT_EQ(ctx.scratch_heap_allocations(), arena_warm);
  EXPECT_EQ(g_new_calls.load(), new_warm);
}


TEST(ModelPlan, WarmStackedQkvPlansPerformZeroHeapAllocations) {
  // The attention step's one Q/K/V plan: BiQGEMM's shared stack (2-bit)
  // and the blocked parts run one after another (fp32), alone and inside
  // the encoder's ModelPlan, at batch 1 and a multi-tile batch, serial
  // and pooled.
  ThreadPool pool(3);
  ExecContext serial, pooled(&pool);
  for (const QuantSpec& spec : {QuantSpec{}, quant2()}) {
    const TransformerEncoder enc = make_encoder(tiny(), 42, spec);
    const MultiHeadAttention& attn = enc.layers()[0].attention();
    const LinearLayer* qkv[] = {&attn.wq(), &attn.wk(), &attn.wv()};
    for (ExecContext* ctx : {&serial, &pooled}) {
      for (const std::size_t t : {std::size_t{1}, std::size_t{40}}) {
        Rng rng(t);
        const Matrix x = Matrix::random_normal(32, t, rng);
        Matrix y(32, t), yqkv(96, t);
        const auto stack = LinearLayer::plan_stack(qkv, t, *ctx);
        const ModelPlan plan(enc, t, *ctx);
        for (int warm = 0; warm < 2; ++warm) {
          stack->run(x, yqkv);
          plan.run(x, y);
        }
        const std::size_t arena_warm = ctx->scratch_heap_allocations();
        const std::size_t new_warm = g_new_calls.load();
        for (int rep = 0; rep < 4; ++rep) {
          stack->run(x, yqkv);
          plan.run(x, y);
        }
        EXPECT_EQ(ctx->scratch_heap_allocations(), arena_warm)
            << spec.weight_bits << "-bit t " << t;
        EXPECT_EQ(g_new_calls.load(), new_warm)
            << spec.weight_bits << "-bit t " << t;
      }
    }
  }
}

}  // namespace
}  // namespace biq::nn
