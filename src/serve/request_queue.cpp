#include "serve/request_queue.hpp"

#include <algorithm>

namespace biq::serve {

RequestQueue::RequestQueue(std::size_t capacity)
    : ring_(std::max<std::size_t>(1, capacity)) {}

bool RequestQueue::push(const Request& r) {
  std::unique_lock<std::mutex> lock(m_);
  not_full_.wait(lock, [&] { return count_ < ring_.size() || closed_; });
  if (closed_) return false;
  ring_[(head_ + count_) % ring_.size()] = r;
  ++count_;
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

bool RequestQueue::pop(Request& out) {
  std::unique_lock<std::mutex> lock(m_);
  not_empty_.wait(lock, [&] { return count_ != 0 || closed_; });
  if (count_ == 0) return false;
  take_head(out, lock);
  return true;
}

bool RequestQueue::pop_until(Request& out,
                             std::chrono::steady_clock::time_point deadline,
                             std::size_t max_cols) {
  std::unique_lock<std::mutex> lock(m_);
  not_empty_.wait_until(lock, deadline,
                        [&] { return count_ != 0 || closed_; });
  if (count_ == 0 || ring_[head_].x.cols() > max_cols) return false;
  take_head(out, lock);
  return true;
}

void RequestQueue::take_head(Request& out,
                             std::unique_lock<std::mutex>& lock) {
  out = ring_[head_];
  head_ = (head_ + 1) % ring_.size();
  --count_;
  lock.unlock();
  not_full_.notify_one();
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(m_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

std::size_t RequestQueue::pending() const {
  std::lock_guard<std::mutex> lock(m_);
  return count_;
}

}  // namespace biq::serve
