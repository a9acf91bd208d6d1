#ifndef GRAPE_UTIL_THREAD_POOL_H_
#define GRAPE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace grape {

/// Fixed-size worker pool. The PIE engine maps each logical worker P_i onto
/// one pool task per superstep, so fragments run in parallel while each
/// fragment's PEval/IncEval stays sequential; ParallelFor is also used by
/// partitioners and generators for data-parallel loops.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves when it completes.
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(i) for i in [begin, end) across the pool and blocks until all
  /// iterations finish. Iterations are chunked to limit scheduling overhead.
  ///
  /// Safe to call from inside a pool task (including from another
  /// ParallelFor body): the caller claims and executes chunks itself
  /// instead of blocking on queued work, so progress never depends on a
  /// free pool thread. Pool threads only *help*; a nested call on a fully
  /// busy (even 1-thread) pool degrades to running inline. fn must not
  /// throw — worker-side failures travel as Status through the callers.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

 private:
  /// Shared state of one ParallelFor: a chunk ticket counter drained
  /// cooperatively by the caller and any helper tasks that get scheduled.
  struct ForState;
  static void DrainChunks(ForState& s);

  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace grape

#endif  // GRAPE_UTIL_THREAD_POOL_H_
