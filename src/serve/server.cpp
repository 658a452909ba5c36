#include "serve/server.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>

#include "nn/tensor.hpp"

namespace biq::serve {

InferenceServer::Worker::Worker(const nn::PlannableModule& module,
                                std::size_t out_rows, std::size_t max_bucket,
                                unsigned threads)
    : pool(threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr),
      ctx(pool.get()),
      in(module.in_rows(), max_bucket),
      out(out_rows, max_bucket) {
  batch.reserve(max_bucket);
  plans.reserve(bucket_count(max_bucket));
  for (std::size_t bucket = 1; bucket <= max_bucket; bucket <<= 1) {
    const nn::ModelPlan& p = plans.emplace_back(module, bucket, ctx);
    const ConstMatrixView x = in.col_block(0, bucket);
    const MatrixView y = out.col_block(0, bucket);
    p.run(x, y);
    p.run(x, y);
  }
}

InferenceServer::InferenceServer(const nn::PlannableModule& module,
                                 ServeConfig cfg)
    : cfg_(cfg),
      in_rows_(module.in_rows()),
      out_rows_(module.out_shape({module.in_rows(), 1}).rows),
      queue_(cfg.queue_capacity) {
  if (!module.columns_independent()) {
    throw std::invalid_argument(
        "InferenceServer: module mixes batch columns "
        "(columns_independent() is false) — concatenating independent "
        "requests along the column axis would change their results");
  }
  cfg_.max_batch = bucket_for(std::max<std::size_t>(1, cfg.max_batch));

  const std::size_t worker_count = std::max<std::size_t>(1, cfg.workers);
  workers_.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    workers_.push_back(std::make_unique<Worker>(
        module, out_rows_, cfg_.max_batch, cfg.threads_per_worker));
  }
  for (auto& w : workers_) {
    Worker& worker = *w;
    worker.thread = std::thread([this, &worker] { worker_loop(worker); });
  }
}

InferenceServer::~InferenceServer() {
  // Drain, do not abort: no new submissions; the workers pop and run
  // everything already accepted, and each exits once the queue is
  // closed AND empty. The workers (their plans, then their contexts)
  // are destroyed after this body, with their threads long gone.
  queue_.close();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void InferenceServer::submit(ConstMatrixView x, MatrixView y,
                             ServeTicket& ticket) {
  if (x.rows() != in_rows_ || y.rows() != out_rows_ || x.cols() != y.cols() ||
      x.cols() == 0 || x.cols() > cfg_.max_batch || x.ld() < x.rows() ||
      y.ld() < y.rows()) {
    throw std::invalid_argument(
        "InferenceServer::submit: x is " + std::to_string(x.rows()) + "x" +
        std::to_string(x.cols()) + ", y is " + std::to_string(y.rows()) +
        "x" + std::to_string(y.cols()) + "; expected x " +
        std::to_string(in_rows_) + "xC, y " + std::to_string(out_rows_) +
        "xC with 1 <= C <= " + std::to_string(cfg_.max_batch));
  }
  ticket.arm();
  if (!queue_.push(Request{x, y, &ticket})) {
    ticket.disarm();
    throw std::runtime_error("InferenceServer::submit: server stopped");
  }
}

void InferenceServer::infer(ConstMatrixView x, MatrixView y) {
  ServeTicket ticket;
  submit(x, y, ticket);
  ticket.wait();
}

InferenceServer::Stats InferenceServer::stats() const noexcept {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.columns = columns_.load(std::memory_order_relaxed);
  s.padded_columns = padded_.load(std::memory_order_relaxed);
  return s;
}

void InferenceServer::worker_loop(Worker& w) {
  for (;;) {
    std::size_t cols = 0;
    {
      // One batch coalesces at a time; the other workers meanwhile run
      // the batches they already gathered.
      std::lock_guard<std::mutex> gather(gather_m_);
      Request r;
      if (!queue_.pop(r)) return;  // closed and drained
      const auto deadline = std::chrono::steady_clock::now() + cfg_.max_wait;
      w.batch.clear();
      do {
        w.batch.push_back(r);
        cols += r.x.cols();
      } while (cols < cfg_.max_batch &&
               queue_.pop_until(r, deadline, cfg_.max_batch - cols));
    }
    run_batch(w, cols);
  }
}

void InferenceServer::run_batch(Worker& w, std::size_t cols) {
  const std::size_t bucket = bucket_for(cols);
  std::exception_ptr err;
  try {
    const MatrixView in = w.in.col_block(0, bucket);
    const MatrixView out = w.out.col_block(0, bucket);
    // Scatter: each request's columns become a contiguous column range
    // of the staging input. Pad columns [cols, bucket) keep whatever
    // an earlier batch left there — finite values whose outputs are
    // never gathered (column independence keeps them from touching the
    // real columns' arithmetic).
    std::size_t c0 = 0;
    for (const Request& r : w.batch) {
      nn::copy_into(r.x, in.col_block(c0, r.x.cols()));
      c0 += r.x.cols();
    }
    // Warm path: zero replans, zero heap allocations in the plan's run.
    w.plans[std::countr_zero(bucket)].run(in, out);
    // Gather: slice each request's columns back out.
    c0 = 0;
    for (const Request& r : w.batch) {
      nn::copy_into(out.col_block(c0, r.x.cols()), r.y);
      c0 += r.x.cols();
    }
  } catch (...) {
    err = std::current_exception();
  }

  // Counters first, completion second: a submitter that observed its
  // ticket complete must already see its request in stats().
  requests_.fetch_add(w.batch.size(), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  columns_.fetch_add(cols, std::memory_order_relaxed);
  padded_.fetch_add(bucket - cols, std::memory_order_relaxed);

  const auto t = std::chrono::steady_clock::now();
  for (const Request& r : w.batch) {
    if (err == nullptr) {
      r.ticket->complete(t, bucket);
    } else {
      r.ticket->fail(err, t, bucket);
    }
  }
}

}  // namespace biq::serve
