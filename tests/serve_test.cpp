// Inference-server tests: bucket padding bitwise-exactness against
// same-width serial plans, concurrent ModelPlan::run on distinct
// ExecContexts over shared weights, coalescing, the zero-allocation
// warm request path, drain-on-destroy, a failing batch, head-of-line
// order, the ExecContext teardown guard, and the submission queue.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"

// Binary-wide instrumented operator new (same harness as
// exec_context_test / nn_model_plan_test): counts every heap allocation
// so the server's warm-request-path zero-allocation guarantee can be
// asserted directly.
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

namespace biq::serve {
namespace {

using nn::Activation;
using nn::Act;
using nn::LayerNorm;
using nn::make_linear;
using nn::ModelPlan;
using nn::QuantMethod;
using nn::Sequential;
using nn::xavier_uniform;

constexpr std::size_t kIn = 24;
constexpr std::size_t kHid = 32;
constexpr std::size_t kOut = 16;

/// Column-independent 2-layer MLP (Linear -> GELU -> LayerNorm ->
/// Linear); bits == 0 builds the fp32 reference, > 0 the binary-coded
/// quantized layers.
Sequential make_mlp(unsigned bits, std::uint64_t seed = 40) {
  Rng wrng(seed);
  Sequential mlp;
  mlp.add(make_linear(xavier_uniform(kHid, kIn, wrng),
                      std::vector<float>(kHid, 0.1f), bits,
                      QuantMethod::kGreedy));
  mlp.add(std::make_unique<Activation>(kHid, Act::kGelu));
  mlp.add(std::make_unique<LayerNorm>(kHid));
  mlp.add(make_linear(xavier_uniform(kOut, kHid, wrng),
                      std::vector<float>(kOut, -0.05f), bits,
                      QuantMethod::kGreedy));
  return mlp;
}

/// Column-independent pass-through whose step throws when the batch's
/// first input value is marked (x(0, 0) > 1e30) — a stand-in for any
/// step failing mid-batch. Only column 0 is checked: every batch writes
/// its first request there, so a marker can never linger in the pad
/// columns of a later batch.
class ThrowOnMarker final : public nn::PlannableModule {
 public:
  explicit ThrowOnMarker(std::size_t dim) : dim_(dim) {}

  [[nodiscard]] std::size_t in_rows() const noexcept override { return dim_; }
  [[nodiscard]] nn::Shape out_shape(nn::Shape in) const override {
    check_in_rows(in, "ThrowOnMarker");
    return in;
  }
  [[nodiscard]] bool columns_independent() const noexcept override {
    return true;
  }

  static constexpr float kMarker = 1e31f;

 private:
  [[nodiscard]] std::unique_ptr<nn::ModuleStep> do_plan_into(
      nn::ModulePlanContext& /*mpc*/,
      const Epilogue& /*fold*/) const override {
    return std::make_unique<Step>();
  }

  struct Step final : nn::ModuleStep {
    void run_step(float* /*base*/, ConstMatrixView x,
                  MatrixView y) const override {
      if (x(0, 0) > 1e30f) throw std::runtime_error("marked input");
      nn::copy_into(x, y);
    }
  };

  std::size_t dim_;
};

bool bitwise_equal(ConstMatrixView a, ConstMatrixView b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t c = 0; c < a.cols(); ++c) {
    if (std::memcmp(a.col(c), b.col(c), a.rows() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// Death test first: gtest forks the child before the other tests have
// spawned server threads in this process.
TEST(ExecContextDeathTest, AbortsWhenDestroyedWithLiveModelBlocks) {
  // free_model_block must never run after the owning context is gone —
  // a plan outliving its ExecContext is a teardown-ordering bug the
  // context detects (and reports) instead of corrupting freed memory.
  EXPECT_DEATH(
      {
        auto ctx = std::make_unique<ExecContext>();
        const Sequential mlp = make_mlp(2);
        auto plan = std::make_unique<ModelPlan>(mlp, 4, *ctx);
        if (plan->arena_bytes() == 0) std::abort();  // must hold a block
        ctx.reset();  // live model block -> abort with the message below
      },
      "live model block");
}

TEST(ServeConfig, BucketForRoundsUpToPowersOfTwo) {
  EXPECT_EQ(bucket_for(1), 1u);
  EXPECT_EQ(bucket_for(2), 2u);
  EXPECT_EQ(bucket_for(3), 4u);
  EXPECT_EQ(bucket_for(4), 4u);
  EXPECT_EQ(bucket_for(5), 8u);
  EXPECT_EQ(bucket_for(16), 16u);
  EXPECT_EQ(bucket_for(17), 32u);
  EXPECT_EQ(bucket_count(1), 1u);   // {1}
  EXPECT_EQ(bucket_count(8), 4u);   // {1, 2, 4, 8}
  EXPECT_EQ(bucket_count(16), 5u);  // {1, 2, 4, 8, 16}
}

TEST(InferenceServer, RejectsColumnMixingModules) {
  // Dynamic batching concatenates requests along the column axis; a
  // module whose columns interact (attention mixes tokens) must be
  // rejected at construction, not silently produce garbage.
  nn::TransformerConfig cfg;
  cfg.hidden = 32;
  cfg.ffn = 64;
  cfg.heads = 4;
  cfg.layers = 1;
  const nn::TransformerEncoder enc = nn::make_encoder(cfg, 3, {});
  EXPECT_FALSE(enc.columns_independent());
  EXPECT_THROW(InferenceServer(enc, {}), std::invalid_argument);

  const Sequential mlp = make_mlp(2);
  EXPECT_TRUE(mlp.columns_independent());
}

TEST(InferenceServer, SubmitRejectsBadShapes) {
  const Sequential mlp = make_mlp(2);
  ServeConfig cfg;
  cfg.max_batch = 8;
  InferenceServer server(mlp, cfg);

  ServeTicket ticket;
  Matrix x(kIn, 2), y(kOut, 2);
  Matrix wrong_in(kIn + 1, 2), wrong_out(kOut + 1, 2);
  Matrix wide_x(kIn, 9), wide_y(kOut, 9), narrow_y(kOut, 1);
  Matrix empty_x(kIn, 0), empty_y(kOut, 0);
  EXPECT_THROW(server.submit(wrong_in.view(), y.view(), ticket),
               std::invalid_argument);
  EXPECT_THROW(server.submit(x.view(), wrong_out.view(), ticket),
               std::invalid_argument);
  EXPECT_THROW(server.submit(wide_x.view(), wide_y.view(), ticket),
               std::invalid_argument);  // wider than max_batch
  EXPECT_THROW(server.submit(x.view(), narrow_y.view(), ticket),
               std::invalid_argument);  // x/y column mismatch
  EXPECT_THROW(server.submit(empty_x.view(), empty_y.view(), ticket),
               std::invalid_argument);  // zero-width request
  EXPECT_NO_THROW(server.infer(x.view(), y.view()));
}

TEST(InferenceServer, PaddedBucketsMatchSameWidthSerialPlansBitwise) {
  // The server pads a request up to its power-of-two bucket; the result
  // must be bitwise identical to a serial ModelPlan run at that SAME
  // bucket width with the request in the same columns — pad column
  // VALUES must not matter (column independence at fixed width). This
  // is the exactness contract of bucket padding, checked for quantized
  // weights where accumulation order is least forgiving.
  const Sequential mlp = make_mlp(2);

  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.workers = 2;
  cfg.max_wait = std::chrono::microseconds(0);  // dispatch immediately
  InferenceServer server(mlp, cfg);

  ExecContext ref_ctx;
  Rng rng(71);
  for (const std::size_t w : {1u, 2u, 3u, 4u, 5u, 7u, 8u}) {
    const Matrix x = Matrix::random_normal(kIn, w, rng);
    Matrix y(kOut, w);
    server.infer(x.view(), y.view());  // alone -> bucket_for(w), cols [0, w)

    const std::size_t bucket = bucket_for(w);
    Matrix xref(kIn, bucket);  // zero pad — values must be irrelevant
    nn::copy_into(x.view(), xref.col_block(0, w));
    Matrix yref(kOut, bucket);
    const ModelPlan plan(mlp, bucket, ref_ctx);
    plan.run(xref, yref);
    EXPECT_TRUE(bitwise_equal(y.view(), yref.col_block(0, w)))
        << "width " << w << " in bucket " << bucket;
  }
  EXPECT_EQ(server.stats().requests, 7u);
}

TEST(InferenceServer, ConcurrentSubmittersMatchSerialForwardBitwise) {
  // Several submitter threads flood a coalescing 2-worker server: every
  // request's output must be bitwise identical to the serial forward of
  // its own columns at their own width. Pinned on the fp32 build, whose
  // kernels are width-invariant, so the reference is exact whatever
  // bucket and column offset the racing workers assigned. Under TSan this
  // is the submit/gather/complete race stress.
  const Sequential mlp = make_mlp(0);

  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.workers = 2;
  cfg.max_wait = std::chrono::microseconds(100);
  InferenceServer server(mlp, cfg);

  // References are computed serially up front; the threads touch only
  // the server.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 32;
  Rng rng(100);
  std::vector<std::vector<Matrix>> xs(kThreads), serial(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const std::size_t w = 1 + rng.next_below(4);
      xs[t].push_back(Matrix::random_normal(kIn, w, rng));
      serial[t].emplace_back(kOut, w);
      mlp.forward(xs[t].back().view(), serial[t].back().view());
    }
  }

  std::vector<std::thread> threads;
  std::atomic<std::size_t> mismatches{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Matrix y(kOut, xs[t][i].cols());
        server.infer(xs[t][i].view(), y.view());
        if (!bitwise_equal(y.view(), serial[t][i].view())) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);

  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_GE(stats.columns, stats.requests);  // every request >= 1 column
}

TEST(InferenceServer, CoalescedQuantizedRequestsMatchServedBucketSerialBitwise) {
  // Quantized kernels pick width-dependent accumulation orders, so a
  // coalesced request's exact reference is a serial plan at the bucket
  // width it ACTUALLY ran at — which its ticket recorded. A served
  // result must be a pure function of (input columns, bucket width):
  // co-batched neighbors, pad values, column offset and worker identity
  // must all be invisible.
  const Sequential mlp = make_mlp(2);

  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.workers = 2;
  cfg.max_wait = std::chrono::microseconds(200);
  InferenceServer server(mlp, cfg);

  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kPerThread = 24;
  Rng rng(121);
  std::vector<std::vector<Matrix>> xs(kThreads), ys(kThreads);
  std::vector<std::vector<ServeTicket>> tickets(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    tickets[t] = std::vector<ServeTicket>(kPerThread);
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const std::size_t w = 1 + rng.next_below(4);
      xs[t].push_back(Matrix::random_normal(kIn, w, rng));
      ys[t].emplace_back(kOut, w);
    }
  }

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        server.submit(xs[t][i].view(), ys[t][i].view(), tickets[t][i]);
      }
      for (std::size_t i = 0; i < kPerThread; ++i) tickets[t][i].wait();
    });
  }
  for (std::thread& th : threads) th.join();

  ExecContext ref_ctx;
  nn::ModelPlanCache<nn::PlannableModule> ref_plans;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const std::size_t w = xs[t][i].cols();
      const std::size_t bucket = tickets[t][i].served_bucket();
      ASSERT_GE(bucket, bucket_for(w)) << "thread " << t << " request " << i;
      Matrix xref(kIn, bucket);  // zero pad, request at column 0
      nn::copy_into(xs[t][i].view(), xref.col_block(0, w));
      Matrix yref(kOut, bucket);
      ref_plans.run(mlp, xref, yref, ref_ctx);
      EXPECT_TRUE(bitwise_equal(ys[t][i].view(), yref.col_block(0, w)))
          << "thread " << t << " request " << i << " width " << w
          << " bucket " << bucket;
    }
  }
}

TEST(InferenceServer, BatcherCoalescesQueuedRequests) {
  // One worker, generous deadline: requests submitted back-to-back must
  // coalesce into far fewer dispatches than requests (this is what the
  // max_wait knob buys), and the stats must account for every column.
  const Sequential mlp = make_mlp(2);

  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.workers = 1;
  cfg.max_wait = std::chrono::milliseconds(50);
  InferenceServer server(mlp, cfg);

  constexpr std::size_t kReqs = 8;
  Rng rng(81);
  std::vector<Matrix> xs, ys;
  std::vector<std::unique_ptr<ServeTicket>> tickets;
  for (std::size_t i = 0; i < kReqs; ++i) {
    xs.push_back(Matrix::random_normal(kIn, 1, rng));
    ys.emplace_back(kOut, 1);
    tickets.push_back(std::make_unique<ServeTicket>());
  }
  for (std::size_t i = 0; i < kReqs; ++i) {
    server.submit(xs[i].view(), ys[i].view(), *tickets[i]);
  }
  for (auto& t : tickets) t->wait();

  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, kReqs);
  EXPECT_EQ(stats.columns, kReqs);
  EXPECT_LE(stats.batches, 2u)
      << "back-to-back width-1 submissions should coalesce";
}

TEST(InferenceServer, WiderHeadClosesTheBatchInsteadOfBeingSkipped) {
  // Head-of-line order: the gathering worker takes the queue's head or
  // nothing. Widths 6, 4, 1 must run as [6] then [4, 1] — both at bucket
  // 8 — never pulling the width-1 request ahead into the first batch.
  const Sequential mlp = make_mlp(2);

  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.workers = 1;
  cfg.max_wait = std::chrono::milliseconds(50);
  InferenceServer server(mlp, cfg);

  Rng rng(131);
  std::vector<Matrix> xs, ys;
  for (const std::size_t w : {6u, 4u, 1u}) {
    xs.push_back(Matrix::random_normal(kIn, w, rng));
    ys.emplace_back(kOut, w);
  }
  ServeTicket tickets[3];
  for (std::size_t i = 0; i < 3; ++i) {
    server.submit(xs[i].view(), ys[i].view(), tickets[i]);
  }
  for (ServeTicket& t : tickets) t.wait();

  EXPECT_EQ(server.stats().batches, 2u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(tickets[i].served_bucket(), 8u) << "request " << i;
  }
  // One batch completes all its tickets at one instant.
  EXPECT_LT(tickets[0].completed_at(), tickets[1].completed_at());
  EXPECT_EQ(tickets[1].completed_at(), tickets[2].completed_at());
}

TEST(InferenceServer, FailingBatchFailsItsTicketsAndTheWorkerKeepsServing) {
  // A step that throws fails every ticket of the batch that carried the
  // marked input — wait() rethrows, served_bucket() is set — and no
  // other. The one worker then serves the next requests bitwise equal
  // to a serial plan at their bucket.
  Sequential model;
  model.add(std::make_unique<ThrowOnMarker>(kIn));
  model.add(std::make_unique<Sequential>(make_mlp(2)));

  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.workers = 1;
  cfg.max_wait = std::chrono::milliseconds(50);
  InferenceServer server(model, cfg);

  Rng rng(141);
  Matrix marked = Matrix::random_normal(kIn, 2, rng);
  marked(0, 0) = ThrowOnMarker::kMarker;
  Matrix marked_y(kOut, 2);
  constexpr std::size_t kReqs = 6;
  std::vector<Matrix> xs, ys;
  for (std::size_t i = 0; i < kReqs; ++i) {
    xs.push_back(Matrix::random_normal(kIn, 1 + i % 3, rng));
    ys.emplace_back(kOut, xs.back().cols());
  }

  // The marked request opens a batch on the idle server, and the
  // co-travellers submitted right behind it join that batch.
  ServeTicket marked_ticket;
  std::vector<std::unique_ptr<ServeTicket>> tickets;
  server.submit(marked.view(), marked_y.view(), marked_ticket);
  for (std::size_t i = 0; i < kReqs / 2; ++i) {
    tickets.push_back(std::make_unique<ServeTicket>());
    server.submit(xs[i].view(), ys[i].view(), *tickets[i]);
  }
  EXPECT_THROW(marked_ticket.wait(), std::runtime_error);
  EXPECT_GE(marked_ticket.served_bucket(), bucket_for(2));

  // The next requests, submitted after the failure. With one worker
  // they complete after every earlier batch, so all tickets are ready
  // below.
  for (std::size_t i = kReqs / 2; i < kReqs; ++i) {
    tickets.push_back(std::make_unique<ServeTicket>());
    server.submit(xs[i].view(), ys[i].view(), *tickets[i]);
  }
  for (std::size_t i = kReqs / 2; i < kReqs; ++i) tickets[i]->wait();

  ExecContext ref_ctx;
  nn::ModelPlanCache<nn::PlannableModule> ref_plans;
  std::size_t served = 0, failed = 0;
  for (std::size_t i = 0; i < kReqs; ++i) {
    ServeTicket& t = *tickets[i];
    ASSERT_TRUE(t.ready()) << "request " << i;
    if (t.completed_at() == marked_ticket.completed_at()) {
      // A co-traveller of the marked input: same batch, same failure.
      EXPECT_THROW(t.wait(), std::runtime_error) << "request " << i;
      EXPECT_EQ(t.served_bucket(), marked_ticket.served_bucket());
      ++failed;
      continue;
    }
    ++served;
    t.wait();  // a request outside the failed batch must not throw
    const std::size_t w = xs[i].cols();
    const std::size_t bucket = t.served_bucket();
    Matrix xref(kIn, bucket);  // zero pad, request at column 0
    nn::copy_into(xs[i].view(), xref.col_block(0, w));
    Matrix yref(kOut, bucket);
    ref_plans.run(model, xref, yref, ref_ctx);
    EXPECT_TRUE(bitwise_equal(ys[i].view(), yref.col_block(0, w)))
        << "request " << i << " width " << w << " bucket " << bucket;
  }
  EXPECT_GE(failed, 1u) << "no request shared the failing batch";
  EXPECT_GE(served, kReqs / 2);
  EXPECT_EQ(server.stats().requests, kReqs + 1);
}

TEST(InferenceServer, ConcurrentPlansOnDistinctContextsMatchSerialBitwise) {
  // The double-buffering contract underneath the worker pool, without
  // the server: two threads run their own ModelPlans on their own
  // ExecContexts over the SAME module weights, concurrently. Every
  // output must be bitwise identical to the serial single-context
  // reference — engines are immutable after construction, all mutable
  // run state lives in the context. TSan owns the race half of this.
  const Sequential mlp = make_mlp(2);
  const std::size_t batch = 6;

  Rng rng(91);
  constexpr std::size_t kThreads = 2;
  constexpr int kReps = 16;
  std::vector<Matrix> inputs, serial;
  {
    ExecContext serial_ctx;
    const ModelPlan plan(mlp, batch, serial_ctx);
    for (std::size_t t = 0; t < kThreads; ++t) {
      inputs.push_back(Matrix::random_normal(kIn, batch, rng));
      serial.emplace_back(kOut, batch);
      plan.run(inputs.back(), serial.back().view());
    }
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecContext ctx;
      const ModelPlan plan(mlp, batch, ctx);
      Matrix y(kOut, batch);
      for (int rep = 0; rep < kReps; ++rep) {
        plan.run(inputs[t], y.view());
        if (!bitwise_equal(y.view(), serial[t].view())) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(InferenceServer, WarmRequestPathPerformsZeroHeapAllocations) {
  // The acceptance pin: after construction (which compiles and
  // double-runs every bucket plan), a mixed-size request stream must
  // allocate NOTHING anywhere in the process — submit, queue, coalescing,
  // scatter, plan run, gather, ticket completion included — and must
  // never replan (stable plan-cache hits are implied by the alloc pin:
  // a replan would allocate) across mixed bucket widths.
  const Sequential mlp = make_mlp(2);

  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.workers = 2;
  cfg.max_wait = std::chrono::microseconds(50);
  InferenceServer server(mlp, cfg);

  constexpr std::size_t kReqs = 24;
  Rng rng(101);
  std::vector<Matrix> xs, ys;
  std::vector<std::unique_ptr<ServeTicket>> tickets;
  for (std::size_t i = 0; i < kReqs; ++i) {
    const std::size_t w = 1 + (i % 5);  // mixed sizes across buckets
    xs.push_back(Matrix::random_normal(kIn, w, rng));
    ys.emplace_back(kOut, w);
    tickets.push_back(std::make_unique<ServeTicket>());
  }

  // Warm pass: first touches of every bucket, ticket, and lazily-grown
  // libc internals (condvar wait chains) happen here, pre-snapshot.
  for (std::size_t i = 0; i < kReqs; ++i) {
    server.submit(xs[i].view(), ys[i].view(), *tickets[i]);
  }
  for (auto& t : tickets) t->wait();

  const std::size_t warm = g_new_calls.load();
  for (std::size_t i = 0; i < kReqs; ++i) {
    server.submit(xs[i].view(), ys[i].view(), *tickets[i]);
  }
  for (auto& t : tickets) t->wait();
  EXPECT_EQ(g_new_calls.load(), warm)
      << "the warm request path touched the heap";
  EXPECT_EQ(server.stats().requests, 2 * kReqs);
}

TEST(InferenceServer, DestructorDrainsInFlightRequests) {
  // Destroying the server with requests in flight must complete every
  // accepted ticket with its real result — drain, not abort.
  const Sequential mlp = make_mlp(0);

  constexpr std::size_t kReqs = 32;
  Rng rng(111);
  std::vector<Matrix> xs, ys;
  std::vector<std::unique_ptr<ServeTicket>> tickets;
  for (std::size_t i = 0; i < kReqs; ++i) {
    const std::size_t w = 1 + (i % 3);
    xs.push_back(Matrix::random_normal(kIn, w, rng));
    ys.emplace_back(kOut, w);
    tickets.push_back(std::make_unique<ServeTicket>());
  }

  {
    ServeConfig cfg;
    cfg.max_batch = 8;
    cfg.workers = 2;
    cfg.max_wait = std::chrono::milliseconds(1);
    InferenceServer server(mlp, cfg);
    for (std::size_t i = 0; i < kReqs; ++i) {
      server.submit(xs[i].view(), ys[i].view(), *tickets[i]);
    }
    // Destructor runs with most requests still queued or executing.
  }

  for (std::size_t i = 0; i < kReqs; ++i) {
    EXPECT_TRUE(tickets[i]->ready()) << "request " << i << " was dropped";
    tickets[i]->wait();  // must not throw
    Matrix serial(kOut, xs[i].cols());
    mlp.forward(xs[i].view(), serial.view());
    EXPECT_TRUE(bitwise_equal(ys[i].view(), serial.view()))
        << "request " << i;
  }
}

// --------------------------------------------------------- RequestQueue

TEST(RequestQueue, DrainsQueuedRequestsAfterClose) {
  RequestQueue q(8);
  Matrix x(4, 1), y(4, 1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.push(Request{x.view(), y.view(), nullptr}));
  }
  q.close();
  EXPECT_FALSE(q.push(Request{x.view(), y.view(), nullptr}));
  Request r;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.pop(r)) << "closed queue dropped a queued request";
  }
  EXPECT_FALSE(q.pop(r));  // closed AND drained
  EXPECT_EQ(q.pending(), 0u);
}

TEST(RequestQueue, PopUntilTimesOutOnAnEmptyQueue) {
  RequestQueue q(4);
  Request r;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_FALSE(q.pop_until(r, deadline, 8));
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

TEST(RequestQueue, ManyProducersTwoConsumersLoseNothing) {
  // MPMC stress: distinct tickets stand in for payload identity; the two
  // consumers together must see every push exactly once, across
  // full-queue blocking and the sleep/wake of both sides.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 200;
  constexpr std::size_t kConsumers = 2;
  RequestQueue q(16);  // small: forces backpressure blocking
  Matrix x(4, 1), y(4, 1);
  std::vector<std::unique_ptr<ServeTicket>> tickets;
  for (std::size_t i = 0; i < kProducers * kPerProducer; ++i) {
    tickets.push_back(std::make_unique<ServeTicket>());
  }

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(Request{x.view(), y.view(),
                                   tickets[p * kPerProducer + i].get()}));
      }
    });
  }

  // Each consumer records what it popped; the tally runs after joining.
  std::vector<std::vector<const ServeTicket*>> popped(kConsumers);
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      Request r;
      while (q.pop(r)) popped[c].push_back(r.ticket);
    });
  }

  for (std::thread& p : producers) p.join();
  q.close();
  for (std::thread& c : consumers) c.join();

  std::vector<bool> seen(tickets.size(), false);
  std::size_t total = 0, duplicates = 0;
  for (const auto& mine : popped) {
    for (const ServeTicket* t : mine) {
      std::size_t idx = 0;
      for (; idx < tickets.size(); ++idx) {
        if (tickets[idx].get() == t) break;
      }
      ASSERT_LT(idx, tickets.size());
      if (seen[idx]) ++duplicates;
      seen[idx] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
  EXPECT_EQ(duplicates, 0u);
}

}  // namespace
}  // namespace biq::serve
