// Fixed-size worker pool with a blocking task queue.
//
// The MapReduce runtime uses this pool as the physical execution substrate
// for map/reduce tasks (the *virtual* cluster on top of it handles slot
// accounting and simulated time; see mapreduce/virtual_cluster.hpp).
// parallel_for is the shared-memory loop primitive for the in-process
// algorithms (k-means assignment, Gram construction, kNN search).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace dasc {

/// Fixed pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Create `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the returned future rethrows any task exception.
  std::future<void> submit(std::function<void()> task);

  /// Block until every task submitted so far has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Counting gate that bounds concurrently-admitted work by task count
/// and/or bytes. acquire() blocks until both budgets admit the request; a
/// limit of 0 disables that budget. A request larger than the whole byte
/// budget is admitted once the gate is empty, so progress is always
/// possible. High-water marks are tracked for reporting.
///
/// The bucket pipeline uses this to cap how many Gram blocks are resident
/// at once (peak memory O(inflight * max block) instead of O(sum blocks)).
class AdmissionGate {
 public:
  AdmissionGate(std::size_t max_tasks, std::size_t max_bytes);

  /// Block until the request fits in both budgets, then admit it.
  void acquire(std::size_t bytes);
  /// Return an admitted request's budget; wakes blocked acquirers.
  void release(std::size_t bytes);

  /// High-water mark of admitted bytes over the gate's lifetime.
  std::size_t peak_bytes() const;
  /// High-water mark of simultaneously admitted tasks.
  std::size_t peak_tasks() const;
  /// Total requests admitted so far.
  std::size_t admitted() const;
  /// Requests that had to wait for budget before admission.
  std::size_t queued() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t max_tasks_ = 0;
  std::size_t max_bytes_ = 0;
  std::size_t tasks_ = 0;
  std::size_t bytes_ = 0;
  std::size_t peak_tasks_ = 0;
  std::size_t peak_bytes_ = 0;
  std::size_t admitted_ = 0;
  std::size_t queued_ = 0;
};

/// Marks the calling thread as one level deep in parallelism for one
/// scope, so a parallel_for started there runs inline, and restores its
/// previous state on exit, so a later top-level call on the same thread
/// fans out again. ThreadPool workers and fanned-out parallel_for
/// iterations hold one; so does any other thread that runs one task of
/// many, such as a worker process's task body.
class ParallelRegion {
 public:
  ParallelRegion();
  ~ParallelRegion();
  ParallelRegion(const ParallelRegion&) = delete;
  ParallelRegion& operator=(const ParallelRegion&) = delete;

 private:
  bool previous_;
};

/// Run body(i) for i in [begin, end) across the given number of threads.
/// Exceptions from any iteration are rethrown (first one wins).
/// threads == 1 runs inline with zero overhead. So does a nested call:
/// one made on a ThreadPool worker, inside another fanned-out
/// parallel_for body, or in a ParallelRegion's scope runs inline on the
/// calling thread, so there is one level of parallelism (a bucket or task
/// per thread) and never threads spawned per inner loop.
void parallel_for(std::size_t begin, std::size_t end, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

/// Default worker count for in-process parallel loops.
std::size_t default_threads();

}  // namespace dasc
