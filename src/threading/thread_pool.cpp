#include "threading/thread_pool.hpp"

#include <cstdlib>
#include <string>

namespace biq {
namespace {

unsigned resolve_thread_count(unsigned requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("BIQ_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1 && v <= 1024) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned total = resolve_thread_count(threads);
  workers_.reserve(total - 1);
  for (unsigned id = 1; id < total; ++id) {
    workers_.emplace_back([this, id] { worker_loop(id); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop(unsigned id) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    RawJob fn = nullptr;
    void* ctx = nullptr;
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      fn = job_fn_;
      ctx = job_ctx_;
    }
    try {
      fn(ctx, id);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(const std::function<void(unsigned)>& job) {
  run_raw(
      [](void* ctx, unsigned id) {
        (*static_cast<const std::function<void(unsigned)>*>(ctx))(id);
      },
      const_cast<std::function<void(unsigned)>*>(&job));
}

void ThreadPool::run_raw(RawJob fn, void* ctx) {
  if (workers_.empty()) {
    fn(ctx, 0);
    return;
  }
  {
    std::lock_guard lock(mutex_);
    job_fn_ = fn;
    job_ctx_ = ctx;
    pending_ = static_cast<unsigned>(workers_.size());
    first_error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();

  std::exception_ptr caller_error;
  try {
    fn(ctx, 0);
  } catch (...) {
    caller_error = std::current_exception();
  }

  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    job_fn_ = nullptr;
    job_ctx_ = nullptr;
    if (!caller_error && first_error_) caller_error = first_error_;
  }
  if (caller_error) std::rethrow_exception(caller_error);
}

}  // namespace biq
