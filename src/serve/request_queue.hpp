// Bounded FIFO submission queue: submitter threads push, the worker
// that is gathering a batch pops. One preallocated ring under one
// mutex, so the warm request path touches the heap zero times; a full
// queue blocks submitters (backpressure), a closed queue drains and
// then rejects.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

#include "matrix/view.hpp"

namespace biq::serve {

class ServeTicket;

/// One queued inference request: non-owning views of the caller's input
/// and output buffers plus the caller-owned completion ticket. All three
/// must stay valid until the ticket completes.
struct Request {
  ConstMatrixView x;
  MatrixView y;
  ServeTicket* ticket = nullptr;
};

class RequestQueue {
 public:
  /// Holds at most `capacity` requests (at least one).
  explicit RequestQueue(std::size_t capacity);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Enqueues r, blocking while the queue is full. Returns false —
  /// without enqueueing — once the queue is closed.
  bool push(const Request& r);

  /// Pops the head, blocking until one arrives. Returns false only when
  /// the queue is closed AND drained.
  bool pop(Request& out);

  /// Pops the head only if it is at most `max_cols` columns wide,
  /// waiting until `deadline` for one to arrive — the coalescing wait of
  /// an open batch. A head that is already queued is taken even past the
  /// deadline. Returns false when the head is wider (it stays queued and
  /// opens the next batch), when the deadline passes with the queue
  /// empty, or when the queue is closed and drained.
  bool pop_until(Request& out, std::chrono::steady_clock::time_point deadline,
                 std::size_t max_cols);

  /// Stops accepting pushes and wakes every waiter. Already-queued
  /// requests remain poppable (the drain contract).
  void close();

  /// Requests currently queued.
  [[nodiscard]] std::size_t pending() const;

 private:
  /// Moves the head into out and wakes one blocked submitter; `lock`
  /// holds m_ on entry and is released.
  void take_head(Request& out, std::unique_lock<std::mutex>& lock);

  mutable std::mutex m_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<Request> ring_;  // fixed size; head_/count_ index into it
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool closed_ = false;
};

}  // namespace biq::serve
