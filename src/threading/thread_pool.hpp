// Fork-join thread pool used by every parallel kernel in the library.
// The calling thread participates as worker 0, so a pool of size 1 runs
// inline with zero synchronization cost and kernels need no special
// single-threaded path.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace biq {

class ThreadPool {
 public:
  /// threads == 0 picks BIQ_THREADS env var if set, otherwise
  /// hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the calling thread.
  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs job(worker_id) once on every worker (ids 0..worker_count-1) and
  /// blocks until all have finished. The first exception thrown by any
  /// worker is rethrown on the calling thread.
  void run(const std::function<void(unsigned)>& job);

  /// Type-erased fork-join without std::function: fn(ctx, worker_id) on
  /// every worker. This is the allocation-free path the engine-layer
  /// tile partitioner dispatches through — a std::function constructed
  /// from a capturing lambda may heap-allocate, which would break the
  /// warm-ExecContext zero-allocation guarantee of the kernel hot path.
  using RawJob = void (*)(void* ctx, unsigned worker);
  void run_raw(RawJob fn, void* ctx);

 private:
  void worker_loop(unsigned id);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  RawJob job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace biq
