// ExecContext subsystem tests: ScratchArena reuse semantics, the shared
// tile partitioner, the warm-path zero-allocation guarantee of the
// BiQGEMM hot loop, threading determinism for every registered engine's
// building blocks, and engine thread-safety under concurrent run()
// calls with distinct contexts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/biqgemm.hpp"
#include "engine/exec_context.hpp"
#include "engine/partition.hpp"
#include "engine/registry.hpp"
#include "gemm/gemm_ref.hpp"
#include "quant/quantize.hpp"

// Binary-wide instrumented operator new: counts every scalar/array heap
// allocation so the warm-plan zero-allocation guarantee can be asserted
// directly (ScratchArena growth is separately visible through
// heap_allocations(), since arenas allocate via std::aligned_alloc).
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

// ------------------------------------------------------------ ScratchArena

TEST(ScratchArena, AllocationsAreAlignedAndDisjoint) {
  ScratchArena arena;
  arena.reset();
  float* a = arena.alloc<float>(100);
  std::int32_t* b = arena.alloc<std::int32_t>(7);
  unsigned char* c = arena.alloc<unsigned char>(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % kDefaultAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % kDefaultAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % kDefaultAlignment, 0u);
  // Writing the full extents must not overlap (would corrupt b/c).
  for (int i = 0; i < 100; ++i) a[i] = 1.0f;
  for (int i = 0; i < 7; ++i) b[i] = -5;
  *c = 9;
  EXPECT_EQ(b[0], -5);
  EXPECT_EQ(*c, 9);
  EXPECT_FLOAT_EQ(a[99], 1.0f);
}

TEST(ScratchArena, WarmFramesDoNotTouchTheHeap) {
  ScratchArena arena;
  for (int warmup = 0; warmup < 2; ++warmup) {
    arena.reset();
    (void)arena.alloc<float>(1000);
    (void)arena.alloc<float>(500);
  }
  const std::size_t warm = arena.heap_allocations();
  EXPECT_GT(warm, 0u);
  for (int frame = 0; frame < 10; ++frame) {
    arena.reset();
    float* a = arena.alloc<float>(1000);
    float* b = arena.alloc<float>(500);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
  }
  EXPECT_EQ(arena.heap_allocations(), warm);
}

TEST(ScratchArena, GrowsAcrossFramesAndRestabilizes) {
  ScratchArena arena;
  arena.reset();
  (void)arena.alloc<float>(10);
  // A bigger frame spills, then the arena consolidates and goes quiet.
  arena.reset();
  float* big = arena.alloc<float>(10000);
  big[9999] = 3.0f;  // spill block must be writable end to end
  arena.reset();
  const std::size_t after_growth = arena.heap_allocations();
  EXPECT_GE(arena.capacity_bytes(), 10000 * sizeof(float));
  for (int frame = 0; frame < 5; ++frame) {
    arena.reset();
    (void)arena.alloc<float>(10000);
  }
  EXPECT_EQ(arena.heap_allocations(), after_growth);
}

TEST(ExecContext, ModelBlocksAreStableAndFreedIndividually) {
  // The model-block API behind nn::ModelPlan: blocks are stable while
  // others come and go, and freeing returns exactly that block's bytes.
  ExecContext ctx;
  EXPECT_EQ(ctx.model_block_bytes(), 0u);
  float* a = ctx.alloc_model_block(100);
  float* b = ctx.alloc_model_block(200);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a[99] = 1.0f;
  b[199] = 2.0f;
  EXPECT_EQ(ctx.model_block_bytes(), 300 * sizeof(float));
  ctx.free_model_block(a);
  EXPECT_EQ(ctx.model_block_bytes(), 200 * sizeof(float));
  EXPECT_FLOAT_EQ(b[199], 2.0f);  // surviving block did not move
  float* c = ctx.alloc_model_block(50);
  c[49] = 3.0f;
  EXPECT_FLOAT_EQ(b[199], 2.0f);
  ctx.free_model_block(b);
  ctx.free_model_block(c);
  EXPECT_EQ(ctx.model_block_bytes(), 0u);
}

// ------------------------------------------------------------- partitioner

TEST(Partitioner, CoversRangeExactlyOnceAtAnyWorkerCount) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    ExecContext ctx(&pool);
    std::vector<std::atomic<int>> hits(1003);
    engine::for_each_tile(ctx, hits.size(), 7,
                          [&](unsigned, std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i) {
                              hits[i].fetch_add(1);
                            }
                          });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Partitioner, WorkerIdsAreValidArenaKeys) {
  ThreadPool pool(4);
  ExecContext ctx(&pool);
  std::atomic<unsigned> max_worker{0};
  engine::for_each_tile(ctx, 64, 1,
                        [&](unsigned worker, std::size_t, std::size_t) {
                          unsigned seen = max_worker.load();
                          while (worker > seen &&
                                 !max_worker.compare_exchange_weak(seen,
                                                                   worker)) {
                          }
                          // Touching the worker's own arena must be safe.
                          ctx.scratch(worker).reset();
                          (void)ctx.scratch(worker).alloc<float>(16);
                        });
  EXPECT_LT(max_worker.load(), ctx.worker_count());
}

TEST(Partitioner, SerialContextRunsInlineAsWorkerZero) {
  ExecContext ctx;  // no pool
  int calls = 0;
  engine::for_each_tile(ctx, 10, 3,
                        [&](unsigned worker, std::size_t lo, std::size_t hi) {
                          ++calls;
                          EXPECT_EQ(worker, 0u);
                          EXPECT_EQ(lo, 0u);
                          EXPECT_EQ(hi, 10u);
                        });
  EXPECT_EQ(calls, 1);
}

// --------------------------------------------- warm-path zero allocation

TEST(ExecContext, WarmBiqGemmRunsServeScratchFromTheArena) {
  Rng rng(11);
  const Matrix w = Matrix::random_normal(96, 128, rng);
  const BinaryCodes codes = quantize(w, 2, QuantMethod::kGreedy);
  const BiqGemm engine(codes);
  Matrix x = Matrix::random_normal(128, 32, rng);
  Matrix y(96, 32);

  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ExecContext ctx(&pool);
    // Warm the arenas: first runs may grow them.
    engine.run(x, y, ctx);
    engine.run(x, y, ctx);
    const std::size_t warm = ctx.scratch_heap_allocations();
    for (int rep = 0; rep < 8; ++rep) engine.run(x, y, ctx);
    EXPECT_EQ(ctx.scratch_heap_allocations(), warm)
        << "threads=" << threads
        << ": warm-context run() touched the heap for scratch";
  }
}

TEST(ExecContext, WarmGemvRunsServeScratchFromTheArena) {
  Rng rng(12);
  const Matrix w = Matrix::random_normal(256, 160, rng);
  const BiqGemm per_row(quantize(w, 2, QuantMethod::kGreedy));
  const BiqGemm grouped(quantize_greedy_grouped(w, 2, 32));
  Matrix x = Matrix::random_normal(160, 1, rng);
  Matrix y(256, 1);

  for (const BiqGemm* engine : {&per_row, &grouped}) {
    // Three workers give every worker its own one-lane row-range items.
    for (unsigned threads : {1u, 3u}) {
      ThreadPool pool(threads);
      ExecContext ctx(&pool);
      // Two warm-up runs: the first spills into an overflow block, the
      // second's reset() consolidates the arena to its high-water mark.
      engine->run(x, y, ctx);
      engine->run(x, y, ctx);
      const std::size_t warm = ctx.scratch_heap_allocations();
      for (int rep = 0; rep < 8; ++rep) engine->run(x, y, ctx);
      EXPECT_EQ(ctx.scratch_heap_allocations(), warm)
          << engine->name() << " threads=" << threads;
    }
  }
}

TEST(ExecContext, WarmPlanRunsPerformZeroHeapAllocations) {
  // The planned hot path must be allocation-free after ONE run, serial
  // and threaded, at batch 1 and at narrow and wide batches: no
  // scratch-arena growth AND no operator-new traffic of any kind
  // (plan-per-call adapters, hidden std::function boxing, ...). Covers
  // the LUT engines, naive, AND the engines with transient
  // activation-quantization phases — int8 sizes its arena frame and
  // xnor its bit-plane workspace at plan time, and tmac-lut's items
  // carve theirs from arenas the work-item driver prewarms (and
  // consolidates) on every call, even for workers the queue starves.
  EngineConfig cfg;
  cfg.weight_bits = 2;
  Rng rng(17);
  const Matrix w = Matrix::random_normal(96, 112, rng, 0.0f, 0.5f);

  for (const char* name :
       {"biqgemm", "biqgemm-grouped", "int8", "xnor", "tmac-lut", "naive"}) {
    const std::unique_ptr<GemmEngine> engine = make_engine(name, w, cfg);
    struct Regime {
      std::size_t batch;
      unsigned threads;
    };
    // For BiQGEMM: {1, 3} splits the one-lane batch-1 tile into one row
    // range per worker; {8, 3} splits one batch tile into row ranges; 48
    // columns at 3 workers are whole tiles only (>= 3 batch tiles at 8
    // or 16 query lanes); {40, 4} mixes the two on the 16-lane plane
    // (3 tiles x 2 row ranges) and is whole tiles at 8 lanes. Every
    // worker's arena carries its own tables. naive, xnor and tmac-lut
    // run (column, row range) items: {1, 3} cuts the one column into
    // three ranges, every wider regime runs whole columns.
    for (const Regime r : {Regime{1, 1}, Regime{1, 3}, Regime{8, 3},
                           Regime{24, 1}, Regime{48, 3}, Regime{40, 4}}) {
      ThreadPool pool(r.threads);
      ExecContext ctx(&pool);
      const std::unique_ptr<GemmPlan> plan = engine->plan(r.batch, ctx);
      Matrix x = Matrix::random_normal(112, r.batch, rng);
      Matrix y(96, r.batch);

      plan->run(x, y);  // the one settling run
      const std::size_t arena_warm = ctx.scratch_heap_allocations();
      const std::size_t new_warm = g_new_calls.load();
      for (int rep = 0; rep < 8; ++rep) plan->run(x, y);
      const std::size_t new_after = g_new_calls.load();
      const std::size_t arena_after = ctx.scratch_heap_allocations();
      EXPECT_EQ(arena_after, arena_warm)
          << name << " batch=" << r.batch << " threads=" << r.threads
          << ": warm plan.run grew a scratch arena";
      EXPECT_EQ(new_after, new_warm)
          << name << " batch=" << r.batch << " threads=" << r.threads
          << ": warm plan.run allocated on the heap";
    }
  }
}

TEST(ExecContext, ThreadDefaultIsPerThreadAndSerial) {
  ExecContext& main_ctx = ExecContext::thread_default();
  EXPECT_EQ(main_ctx.pool(), nullptr);
  EXPECT_EQ(main_ctx.worker_count(), 1u);
  EXPECT_EQ(&main_ctx, &ExecContext::thread_default());

  ExecContext* other = nullptr;
  std::thread t([&] { other = &ExecContext::thread_default(); });
  t.join();
  EXPECT_NE(other, &main_ctx);
}

// ------------------------------------------------- concurrent engine use

TEST(ExecContext, OneEngineIsSafeUnderConcurrentRunsWithDistinctContexts) {
  Rng rng(13);
  const Matrix w = Matrix::random_normal(64, 80, rng);
  const BinaryCodes codes = quantize(w, 3, QuantMethod::kGreedy);
  const BiqGemm engine(codes);

  Matrix x = Matrix::random_normal(80, 24, rng);
  Matrix expected(64, 24);
  engine.run(x, expected);  // serial reference

  constexpr int kThreads = 4;
  std::vector<Matrix> outputs;
  outputs.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) outputs.emplace_back(64, 24);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Each caller brings its own context (and half bring a pool).
      if (i % 2 == 0) {
        ExecContext ctx;
        for (int rep = 0; rep < 5; ++rep) engine.run(x, outputs[i], ctx);
      } else {
        ThreadPool pool(2);
        ExecContext ctx(&pool);
        for (int rep = 0; rep < 5; ++rep) engine.run(x, outputs[i], ctx);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(max_abs_diff(outputs[i], expected), 0.0f) << "caller " << i;
  }
}

// ------------------------------------- kernel plane from the ExecContext

TEST(ExecContext, IsaOverrideReroutesOneCall) {
  Rng rng(14);
  const Matrix w = Matrix::random_normal(40, 48, rng);
  const BinaryCodes codes = quantize(w, 2, QuantMethod::kGreedy);
  const BiqGemm engine(codes);
  Matrix x = Matrix::random_normal(48, 8, rng);
  Matrix y_auto(40, 8), y_scalar(40, 8);
  engine.run(x, y_auto);

  ExecContext scalar_ctx(nullptr, KernelIsa::kScalar);
  engine.run(x, y_scalar, scalar_ctx);
  EXPECT_TRUE(allclose(y_auto, y_scalar, 1e-5f, 1e-5f));
}

}  // namespace
}  // namespace biq
