#pragma once
// Work-stealing thread pool for the parallel inference engine.
//
// Each worker owns a deque: it pushes and pops work at the back and, when
// its own deque runs dry, steals from the front of a sibling's. submit()
// distributes tasks round-robin so independent jobs (e.g. BatchRunner's
// per-(vehicle, DID) datasets) spread across workers, while stealing keeps
// everyone busy when job costs are skewed — GP runs on small datasets
// finish early and their workers pick up the stragglers' jobs.
//
// parallel_for() is *caller-participating*: the calling thread drains
// iterations from a shared atomic cursor alongside the
// workers, so a nested parallel_for issued from inside a pool task can
// never deadlock — worst case the caller executes every iteration itself.
// The first exception thrown by any iteration is captured and rethrown on
// the calling thread after the loop quiesces.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dpr::util {

class ThreadPool {
 public:
  /// Spawns `n_threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Resolve a user-facing thread knob: 0 -> hardware concurrency,
  /// otherwise the value itself (never less than 1).
  static std::size_t resolve(std::size_t n_threads);

  /// Enqueue a fire-and-forget task (round-robin across worker deques).
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished.
  void wait_idle();

  /// Run body(i) for i in [0, n). Blocks until all iterations complete;
  /// the caller participates, so this is safe to nest from pool tasks.
  /// Rethrows the first exception raised by any iteration.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t index);
  bool try_run_one(std::size_t home);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::condition_variable idle_cv_;
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::size_t> queued_{0};   // tasks sitting in a deque
  std::atomic<std::size_t> pending_{0};  // queued + in flight
  std::atomic<bool> stop_{false};
};

}  // namespace dpr::util
