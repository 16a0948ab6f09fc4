#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

namespace dpr::util {

std::size_t ThreadPool::resolve(std::size_t n_threads) {
  if (n_threads != 0) return n_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t n_threads) {
  const std::size_t n = resolve(n_threads);
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  // Publish under the sleep mutex: a worker that has just evaluated its
  // wait predicate still holds the mutex, so it either sees the change or
  // is already waiting when the notify arrives. Stored outside the mutex,
  // the wakeup could fall between the two and join() would hang.
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  const std::size_t home =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queues_[home]->mutex);
    queues_[home]->tasks.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);  // see ~ThreadPool
    queued_.fetch_add(1, std::memory_order_release);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::try_run_one(std::size_t home) {
  std::function<void()> task;
  // Own deque first (LIFO: cache-warm), then steal FIFO from siblings.
  {
    auto& q = *queues_[home];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
    }
  }
  if (!task) {
    for (std::size_t step = 1; step < queues_.size() && !task; ++step) {
      auto& victim = *queues_[(home + step) % queues_.size()];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
      }
    }
  }
  if (!task) return false;
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  task();
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    idle_cv_.notify_all();
  }
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  while (!stop_.load(std::memory_order_acquire)) {
    if (try_run_one(index)) continue;
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    // Sleep on *queued* (not in-flight) work so a long-running task on a
    // sibling does not keep the idle workers spinning.
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(sleep_mutex_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;

  // Shared-ownership loop state: helper tasks may be dequeued after the
  // caller has already returned (every index can be claimed before a
  // queued helper ever runs), so everything a late helper touches must
  // live in this block, not on the caller's stack.
  struct Loop {
    std::size_t n = 0;
    std::function<void(std::size_t)> body;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;

    void drain() {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
        }
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
          std::lock_guard<std::mutex> lock(mutex);
          cv.notify_all();
        }
      }
    }
  };
  auto loop = std::make_shared<Loop>();
  loop->n = n;
  loop->body = body;

  // One helper task per worker; each pulls indices from the shared cursor.
  // The caller drains too, so even when every worker is busy with long
  // jobs (nested loops, BatchRunner fan-out) the loop always completes.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([loop] { loop->drain(); });
  }
  loop->drain();

  {
    std::unique_lock<std::mutex> lock(loop->mutex);
    loop->cv.wait(lock, [&loop] {
      return loop->done.load(std::memory_order_acquire) == loop->n;
    });
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace dpr::util
