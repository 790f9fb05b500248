// Fixed-size thread pool: the persistent workers of in-process supersteps
// (spinner/sharded_program.cc) and of the session's execution resources.
// Workers are long-lived so superstep loops do not pay thread-creation
// costs.
#ifndef SPINNER_COMMON_THREADPOOL_H_
#define SPINNER_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace spinner {

/// A fixed pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (minimum 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  /// Number of worker threads.
  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  int64_t pending_ = 0;  // queued + running tasks
  bool shutdown_ = false;
};

}  // namespace spinner

#endif  // SPINNER_COMMON_THREADPOOL_H_
