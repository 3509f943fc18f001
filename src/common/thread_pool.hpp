// A small fixed-size thread pool for embarrassingly-parallel work.
//
// Used by the Analysis-Phase planner (independent regions optimize
// concurrently), by the stripe-size optimizer (Algorithm 2 shards its
// candidate grid), and by the benchmark harness to evaluate independent
// layout candidates.  The discrete-event simulator itself is
// single-threaded and deterministic; the pool is only ever handed
// independent tasks, so there is no cross-task synchronization to reason
// about beyond the queue.
//
// parallel_for() is *work-helping*: the calling thread claims iterations
// alongside the workers, so a task running on the pool may itself call
// parallel_for() on the same pool without deadlock — in the worst case the
// nested caller executes every nested iteration itself.  This is what lets
// the planner parallelize over regions while each region's optimizer is
// free to shard its candidate axis on the same pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace harl {

/// Widest pool the command-line tools accept (the range of their threads=).
inline constexpr std::size_t kMaxToolThreads = 1024;

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task; the returned future observes its result/exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// The caller participates (claims iterations itself), so nesting
  /// parallel_for inside a pool task cannot deadlock.  Iteration-to-thread
  /// assignment is nondeterministic; callers that need deterministic output
  /// must write results by index.  Exceptions from any invocation are
  /// rethrown after all iterations finish (the first one observed).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::jthread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace harl
