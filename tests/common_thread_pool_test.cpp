#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace e2e {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (std::size_t i = 0; i < 100; ++i) {
      pool.post(i, [&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PostReachesEveryWorker) {
  std::mutex mutex;
  std::set<std::thread::id> seen;
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    for (std::size_t key = 0; key < pool.size(); ++key) {
      pool.post(key, [&] {
        std::lock_guard lock(mutex);
        seen.insert(std::this_thread::get_id());
      });
    }
  }
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_FALSE(seen.contains(std::this_thread::get_id()));
}

TEST(ThreadPool, PerKeyFifoOrder) {
  constexpr std::size_t kKeys = 8;
  constexpr int kPerKey = 200;
  // Each key's list is only ever appended by its own worker.
  std::vector<std::vector<int>> order(kKeys);
  {
    ThreadPool pool(3);
    for (int i = 0; i < kPerKey; ++i) {
      for (std::size_t key = 0; key < kKeys; ++key) {
        pool.post(key, [&order, key, i] { order[key].push_back(i); });
      }
    }
  }
  for (std::size_t key = 0; key < kKeys; ++key) {
    ASSERT_EQ(order[key].size(), static_cast<std::size_t>(kPerKey));
    for (int i = 0; i < kPerKey; ++i) EXPECT_EQ(order[key][i], i);
  }
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  std::atomic<int> value{0};
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    pool.post(7, [&value] { value.store(5); });
  }
  EXPECT_EQ(value.load(), 5);
}

TEST(ThreadPool, ZeroWorkersRouteEveryKeyToTheOneWorker) {
  // With the clamp, key % size() is 0 for every key: tasks posted under
  // different keys share the one worker and run in posting order.
  std::vector<std::size_t> order;
  std::set<std::thread::id> seen;
  {
    ThreadPool pool(0);
    ASSERT_EQ(pool.size(), 1u);
    for (std::size_t key = 0; key < 16; ++key) {
      pool.post(key * 7 + 3, [&order, &seen, key] {
        order.push_back(key);
        seen.insert(std::this_thread::get_id());
      });
    }
  }
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t key = 0; key < 16; ++key) EXPECT_EQ(order[key], key);
  EXPECT_EQ(seen.size(), 1u);
}

TEST(ThreadPool, ConcurrentPostersLoseNoTask) {
  constexpr int kPosters = 6;
  constexpr int kPerPoster = 200;
  std::atomic<int> total{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> posters;
    for (int t = 0; t < kPosters; ++t) {
      posters.emplace_back([&, t] {
        for (int i = 0; i < kPerPoster; ++i) {
          pool.post(static_cast<std::size_t>(t + i),
                    [&total] { total.fetch_add(1); });
        }
      });
    }
    for (auto& poster : posters) poster.join();
  }
  EXPECT_EQ(total.load(), kPosters * kPerPoster);
}

TEST(ThreadPool, DrainsQueueOnShutdown) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    // The first task keeps worker 0 busy while the rest queue up behind
    // it, so shutdown starts with work still queued.
    pool.post(0, [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    for (int i = 0; i < 64; ++i) {
      pool.post(0, [&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains, then joins
  EXPECT_EQ(counter.load(), 64);
}

}  // namespace
}  // namespace e2e
