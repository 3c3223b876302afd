// Fixed-size keyed worker pool: the one thread abstraction in src/.
//
// N workers, each draining its own FIFO queue. post(key, task) always
// lands on worker `key % N`, so tasks posted under one key run in order
// on one thread — the bbd daemon keys by connection id, which keeps each
// sealed channel's sequence numbers advancing in FIFO order with no
// cross-thread session use. A worker takes its whole queue in one lock
// acquisition per wakeup, so a burst of posts costs one hand-off, not
// one per task.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace e2e {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `num_threads` workers (0 is clamped to 1).
  explicit ThreadPool(std::size_t num_threads);
  /// Drains every queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue `task` on worker `key % size()` and return immediately.
  void post(std::size_t key, Task task);

  std::size_t size() const { return workers_.size(); }

 private:
  struct Worker {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Task> queue;
    bool stop = false;
    std::thread thread;
  };

  static void worker_loop(Worker& worker);

  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace e2e
