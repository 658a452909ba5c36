// InferenceServer — concurrent request batching over per-worker frozen
// ModelPlans: the first subsystem above the model layer, and the
// serving shape of the paper's own motivating workloads (ASR /
// translation traffic of many small concurrent requests, Sec. I):
// build-once-amortize-everywhere lifted from LUTs and plans to
// whole-server lifetime.
//
//   submitters --> RequestQueue (one locked ring, bounded)
//                      |
//                  worker threads, each with its own ExecContext and one
//                      frozen ModelPlan per power-of-two bucket. An idle
//                      worker takes the gather lock (one batch coalesces
//                      at a time), blocks for the first request, pops
//                      more until max_batch columns or the max_wait
//                      deadline, releases the lock, then scatters the
//                      requests into staging padded to the bucket, runs
//                      the bucket's plan, gathers the columns back and
//                      completes the tickets
//
// Guarantees:
//   * zero replans and ZERO heap allocations anywhere on the warm
//     request path (submit / gather / run / complete) — every bucket's
//     plan is compiled and run twice in the constructor, every queue /
//     batch / staging buffer is preallocated, and completion uses
//     caller-owned tickets rather than allocating futures,
//   * results are deterministic and bitwise identical to executing the
//     same bucket serially on one context: at a fixed bucket width the
//     engines compute each column with per-column accumulators, so
//     neither the pad columns' values, the neighboring requests, nor
//     which worker ran the bucket changes a single bit. (Bucket width
//     itself is part of the plan: some quantized kernels pick different
//     accumulation orders at different widths, so a request's bits can
//     legitimately differ from a standalone run at its exact width.
//     Column independence is required of the module and validated at
//     construction.)
//   * a batch whose plan run throws fails exactly its own tickets (each
//     wait() rethrows); the worker keeps serving,
//   * destruction drains: every accepted request completes (its ticket
//     fires) before the destructor returns — plans die before their
//     contexts (the ExecContext teardown guard enforces the order).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/exec_context.hpp"
#include "matrix/matrix.hpp"
#include "nn/model_plan.hpp"
#include "nn/module.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_config.hpp"
#include "serve/ticket.hpp"
#include "threading/thread_pool.hpp"

namespace biq::serve {

class InferenceServer {
 public:
  /// Compiles and warm-runs every (worker, bucket) plan, then starts the
  /// worker threads. The module must outlive the server and must be
  /// columns_independent() — dynamic batching concatenates requests
  /// along the column axis, which is only exact when columns never mix
  /// (throws std::invalid_argument otherwise).
  explicit InferenceServer(const nn::PlannableModule& module,
                           ServeConfig cfg = {});

  /// Drains: closes the queue, lets the workers run everything already
  /// accepted, then joins them. Every accepted request's ticket
  /// completes.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one request: x (in_rows x c) is read and y (out_rows x c,
  /// 1 <= c <= max_batch) overwritten by a worker thread; both views
  /// and the ticket must stay valid until the ticket completes. Blocks
  /// only when the submission queue is full (backpressure). Throws
  /// std::invalid_argument on a shape mismatch and std::runtime_error
  /// once the server is stopping.
  void submit(ConstMatrixView x, MatrixView y, ServeTicket& ticket);

  /// Synchronous convenience: submit + wait on a stack ticket.
  void infer(ConstMatrixView x, MatrixView y);

  struct Stats {
    std::uint64_t requests = 0;        // completed requests
    std::uint64_t batches = 0;         // dispatched bucket runs
    std::uint64_t columns = 0;         // real request columns executed
    std::uint64_t padded_columns = 0;  // pad columns executed (waste)
  };
  [[nodiscard]] Stats stats() const noexcept;

  [[nodiscard]] const ServeConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t in_rows() const noexcept { return in_rows_; }
  [[nodiscard]] std::size_t out_rows() const noexcept { return out_rows_; }
  /// Largest accepted request width == largest compiled bucket.
  [[nodiscard]] std::size_t max_batch() const noexcept {
    return cfg_.max_batch;
  }

 private:
  /// One worker: its context, its frozen plans and staging, and the
  /// thread that gathers and runs its batches. Only that thread touches
  /// the members after construction.
  struct Worker {
    /// Compiles the plan of every bucket 1, 2, 4, ..., max_bucket and
    /// runs each twice over the zeroed staging: the first run grows the
    /// engines' scratch arenas, the second consolidates overflow.
    Worker(const nn::PlannableModule& module, std::size_t out_rows,
           std::size_t max_bucket, unsigned threads);

    // Declaration order is the teardown contract: plans (and their
    // arena blocks) die before the ctx they bind to, the ctx before
    // the pool it borrows.
    std::unique_ptr<ThreadPool> pool;
    ExecContext ctx;
    std::vector<nn::ModelPlan> plans;  // plans[k] runs bucket 2^k
    Matrix in, out;                    // staging, rows x max_bucket
    std::vector<Request> batch;        // reserved to max_bucket, reused
    std::thread thread;                // joined by the server destructor
  };

  void worker_loop(Worker& w);
  /// Runs w.batch (cols real columns) at its bucket: scatter, plan,
  /// gather, complete every ticket (with the batch's error, if any).
  void run_batch(Worker& w, std::size_t cols);

  ServeConfig cfg_;
  std::size_t in_rows_;
  std::size_t out_rows_;
  RequestQueue queue_;
  std::mutex gather_m_;  // held by the one worker coalescing a batch

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> columns_{0};
  std::atomic<std::uint64_t> padded_{0};

  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace biq::serve
