#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/error.hpp"

namespace dasc {

namespace {

/// True while this thread is one level deep in parallelism: a ThreadPool
/// worker, a thread running a fanned-out parallel_for's iterations, or any
/// scope holding a ParallelRegion. A parallel_for started there runs inline
/// (nested parallelism off, as in OpenMP's default), so per-task loops
/// never multiply the thread count.
thread_local bool in_parallel_region = false;

}  // namespace

ParallelRegion::ParallelRegion() : previous_(in_parallel_region) {
  in_parallel_region = true;
}

ParallelRegion::~ParallelRegion() { in_parallel_region = previous_; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  DASC_EXPECT(task != nullptr, "submit: null task");
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> fut = packaged->get_future();
  {
    std::lock_guard lock(mutex_);
    DASC_EXPECT(!stop_, "submit: pool is shutting down");
    queue_.emplace_back([packaged] { (*packaged)(); });
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  const ParallelRegion region;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();  // packaged_task captures exceptions into the future
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

AdmissionGate::AdmissionGate(std::size_t max_tasks, std::size_t max_bytes)
    : max_tasks_(max_tasks), max_bytes_(max_bytes) {}

void AdmissionGate::acquire(std::size_t bytes) {
  std::unique_lock lock(mutex_);
  bool waited = false;
  cv_.wait(lock, [&] {
    if (tasks_ == 0) return true;  // never starve an oversized request
    if (max_tasks_ != 0 && tasks_ >= max_tasks_) {
      waited = true;
      return false;
    }
    if (max_bytes_ != 0 && bytes_ + bytes > max_bytes_) {
      waited = true;
      return false;
    }
    return true;
  });
  ++tasks_;
  bytes_ += bytes;
  ++admitted_;
  if (waited) ++queued_;
  peak_tasks_ = std::max(peak_tasks_, tasks_);
  peak_bytes_ = std::max(peak_bytes_, bytes_);
}

void AdmissionGate::release(std::size_t bytes) {
  {
    std::lock_guard lock(mutex_);
    DASC_EXPECT(tasks_ > 0 && bytes_ >= bytes,
                "AdmissionGate: release without matching acquire");
    --tasks_;
    bytes_ -= bytes;
  }
  cv_.notify_all();
}

std::size_t AdmissionGate::peak_bytes() const {
  std::lock_guard lock(mutex_);
  return peak_bytes_;
}

std::size_t AdmissionGate::peak_tasks() const {
  std::lock_guard lock(mutex_);
  return peak_tasks_;
}

std::size_t AdmissionGate::admitted() const {
  std::lock_guard lock(mutex_);
  return admitted_;
}

std::size_t AdmissionGate::queued() const {
  std::lock_guard lock(mutex_);
  return queued_;
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  DASC_EXPECT(begin <= end, "parallel_for: begin must be <= end");
  if (begin == end) return;
  const std::size_t n = end - begin;
  if (threads == 0) threads = default_threads();
  if (threads > n) threads = n;
  if (threads <= 1 || in_parallel_region) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{begin};
  std::exception_ptr error;
  std::mutex error_mutex;
  // Dynamic chunking: small fixed chunks balance irregular iteration costs
  // (e.g. per-bucket spectral clustering where bucket sizes vary widely).
  const std::size_t chunk = std::max<std::size_t>(1, n / (threads * 8));

  auto run = [&] {
    const ParallelRegion region;
    for (;;) {
      const std::size_t start = next.fetch_add(chunk);
      if (start >= end) return;
      const std::size_t stop = std::min(end, start + chunk);
      try {
        for (std::size_t i = start; i < stop; ++i) body(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(run);
  run();
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

std::size_t default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace dasc
