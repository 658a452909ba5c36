#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>

#include "threading/thread_pool.hpp"

namespace biq {
namespace {

TEST(ThreadPool, WorkerCountMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  int calls = 0;
  pool.run([&](unsigned id) {
    EXPECT_EQ(id, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, EveryWorkerRunsExactlyOnce) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<unsigned> seen;
  pool.run([&](unsigned id) {
    std::lock_guard lock(mu);
    EXPECT_TRUE(seen.insert(id).second);
  });
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(ThreadPool, ReusableAcrossRuns) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int rep = 0; rep < 50; ++rep) {
    pool.run([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run([](unsigned id) {
        if (id == 2) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> count{0};
  pool.run([&](unsigned) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, PropagatesCallerThreadException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run([](unsigned id) {
        if (id == 0) throw std::logic_error("caller");
      }),
      std::logic_error);
}

}  // namespace
}  // namespace biq
