// Persistent worker-thread pool with a chunked parallel-for and optional
// NUMA-aware worker pinning.
//
// The seed ParallelFor spawned and joined fresh std::threads on every call
// and claimed one index per atomic operation; for sweep workloads that call
// into the parallel region once per policy point, thread creation and
// cache-line ping-pong on the work counter dominated.  This pool is created
// once (see ThreadPool::Shared), parks its workers on a condition variable
// between parallel regions, and hands out *chunks* of the index range so the
// shared counter is touched O(count / chunk) times instead of O(count).
//
// Pinning (ThreadPoolOptions::pin_threads): each worker is bound to one CPU,
// workers interleaved across NUMA nodes (see cpu_topology.h), so a
// hardware-sized pool spreads its memory traffic over every controller.
// Pinning is off by default (it is a pessimisation for pools sharing a
// machine with other work); the shared pool turns it on when
// FAAS_PIN_THREADS is set to a non-zero value, and FAAS_POOL_THREADS
// overrides its size.
//
// Design notes:
//   - The calling thread always participates in the loop body, so a region
//     completes even when every pool worker is busy elsewhere; nested
//     ParallelFor calls therefore cannot deadlock (the inner call simply
//     runs mostly inline).
//   - The first exception thrown by any participant is captured and
//     rethrown on the calling thread after the region drains (the seed
//     behaviour was std::terminate).  Remaining chunks are skipped once an
//     exception is pending.
//   - Results must still be written to per-index slots; scheduling is
//     dynamic, so chunk-to-thread assignment is nondeterministic even
//     though index coverage is exact.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace faas {

struct ThreadPoolOptions {
  // 0 means hardware concurrency.  The pool keeps (num_threads - 1) parked
  // workers: the caller of For() is the remaining participant.
  int num_threads = 0;
  // Bind each worker to one CPU, interleaved across NUMA nodes.
  bool pin_threads = false;
};

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads = 0)
      : ThreadPool(ThreadPoolOptions{num_threads, false}) {}
  explicit ThreadPool(const ThreadPoolOptions& options);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of parked worker threads (callers add one more on top).
  int num_workers() const { return static_cast<int>(threads_.size()); }
  bool pinned() const { return pinned_; }

  // Invokes fn(i) for every i in [0, count) using the calling thread plus up
  // to (max_parallelism - 1) pool workers.  chunk == 0 picks a chunk size
  // that yields ~8 chunks per participant.  Rethrows the first exception any
  // participant raised.  max_parallelism <= 1 (or count <= 1) runs inline.
  void For(size_t count, const std::function<void(size_t)>& fn,
           int max_parallelism = 0, size_t chunk = 0);

  // Enqueues one fire-and-forget task for a pool worker.  Intended for the
  // For() implementation and tests; tasks must not throw.  Callers must not
  // rely on a task ever running when the pool has zero workers — check
  // num_workers() first.
  void Submit(std::function<void()> task);

  // Process-wide pool sized to the hardware, created on first use.
  // FAAS_POOL_THREADS=N overrides the size; FAAS_PIN_THREADS=1 enables
  // NUMA-interleaved pinning of its workers.
  static ThreadPool& Shared();

 private:
  void WorkerLoop(int cpu);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  bool pinned_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace faas

#endif  // SRC_COMMON_THREAD_POOL_H_
