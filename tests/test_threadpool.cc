#include "common/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>

namespace spinner {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> x{0};
  pool.Submit([&x] { x = 7; });
  pool.Wait();
  EXPECT_EQ(x.load(), 7);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (wave + 1) * 20);
  }
}

}  // namespace
}  // namespace spinner
