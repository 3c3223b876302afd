#include "common/thread_pool.hpp"

#include <exception>
#include <utility>

#include "common/logging.hpp"

namespace e2e {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t count = num_threads == 0 ? 1 : num_threads;
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Threads start only once every slot exists, so the vector never
  // reallocates under a running worker.
  for (auto& worker : workers_) {
    worker->thread = std::thread([w = worker.get()] { worker_loop(*w); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mutex);
      worker->stop = true;
    }
    worker->cv.notify_all();
  }
  for (auto& worker : workers_) worker->thread.join();
}

void ThreadPool::post(std::size_t key, Task task) {
  Worker& worker = *workers_[key % workers_.size()];
  {
    std::lock_guard lock(worker.mutex);
    worker.queue.push_back(std::move(task));
  }
  worker.cv.notify_one();
}

void ThreadPool::worker_loop(Worker& worker) {
  std::deque<Task> batch;
  for (;;) {
    {
      std::unique_lock lock(worker.mutex);
      worker.cv.wait(lock,
                     [&] { return worker.stop || !worker.queue.empty(); });
      if (worker.queue.empty()) return;  // stop requested and fully drained
      batch.swap(worker.queue);
    }
    for (Task& task : batch) {
      try {
        task();
      } catch (const std::exception& e) {
        // A throwing task is a bug in its poster, and no caller waits to
        // hear about it: say what escaped, then stop as an uncaught
        // exception on this thread would.
        log::error("thread_pool") << "task threw: " << e.what();
        std::terminate();
      }
    }
    batch.clear();
  }
}

}  // namespace e2e
