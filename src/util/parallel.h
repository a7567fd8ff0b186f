// Shared-memory parallel execution substrate.
//
// Every scenario sweep and the per-arm evaluation sweeps of the
// learning experiments are embarrassingly parallel: N independent trials,
// each fully determined by its index (seed). `ThreadPool` runs such
// workloads across cores while keeping the output bit-identical to the
// serial path:
//
//   * tasks are addressed by index, and `parallel_map` stores result i at
//     slot i — the reduction order is the caller's, not the scheduler's;
//   * callers derive any randomness from the task index (one util::Rng per
//     task), never from shared state;
//   * with one thread (or MECAR_THREADS=1) everything runs inline on the
//     calling thread — the serial fallback is the parallel path, not a
//     second code path.
//
// Thread count resolution: explicit constructor argument, else the
// MECAR_THREADS environment variable, else std::thread::hardware_concurrency.
// The pool owns count-1 worker threads; the calling thread participates in
// every parallel region, so a pool of k uses exactly k cores.
//
// Exceptions thrown by task bodies are captured, the region drains without
// starting new indices, and the first exception is rethrown on the calling
// thread. Nested parallel regions (a task body calling parallel_for) run
// inline serially rather than deadlocking on the shared workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mecar::util {

/// Thread count the default pool resolves to: MECAR_THREADS when set to a
/// positive integer, otherwise std::thread::hardware_concurrency (>= 1).
int default_thread_count();

class ThreadPool {
 public:
  /// Creates a pool using `threads` cores (calling thread included);
  /// threads <= 0 resolves via default_thread_count().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism: worker threads + the participating caller.
  int num_threads() const noexcept { return num_threads_; }

  /// Enqueues an arbitrary task. The queue is bounded (a small multiple of
  /// the thread count); submit blocks when it is full. Exceptions escaping
  /// `task` terminate — prefer parallel_for/parallel_map, which propagate.
  void submit(std::function<void()> task);

  /// Runs body(0..n-1), distributing indices across the pool. Returns when
  /// every index completed; rethrows the first exception a body threw (once
  /// a body throws no further indices are started).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// parallel_for that collects return values: result[i] = body(i). The
  /// result vector is ordered by index, so any serial reduction over it is
  /// bit-identical to the serial loop.
  template <typename F>
  auto parallel_map(std::size_t n, F&& body)
      -> std::vector<decltype(body(std::size_t{0}))> {
    using R = decltype(body(std::size_t{0}));
    std::vector<R> results(n);
    parallel_for(n, [&](std::size_t i) { results[i] = body(i); });
    return results;
  }

 private:
  void worker_loop();
  bool pop_task(std::function<void()>& task);

  int num_threads_ = 1;
  std::size_t queue_bound_ = 0;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable queue_cv_;  // workers wait for tasks
  std::condition_variable space_cv_;  // submitters wait for space
  bool stop_ = false;
};

/// Process-wide pool sized by default_thread_count(); constructed on first
/// use. Benches and learners share it so the MECAR_THREADS override governs
/// the whole process.
ThreadPool& default_pool();

/// parallel_for on the default pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// parallel_map on the default pool.
template <typename F>
auto parallel_map(std::size_t n, F&& body)
    -> std::vector<decltype(body(std::size_t{0}))> {
  return default_pool().parallel_map(n, std::forward<F>(body));
}

}  // namespace mecar::util
