#include "common/thread_pool.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dasc {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, FutureRethrowsTaskException) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, RejectsNullTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), InvalidArgument);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(1000);
  parallel_for(0, 1000, 4, [&](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, SupportsNonZeroBegin) {
  std::atomic<long> sum{0};
  parallel_for(10, 20, 3, [&](std::size_t i) {
    sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 145);  // 10 + ... + 19
}

TEST(ParallelFor, EmptyRangeIsNoOp) {
  bool called = false;
  parallel_for(5, 5, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  std::vector<int> order;
  parallel_for(0, 10, 1, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // sequential order preserved
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100, 4,
                   [](std::size_t i) {
                     if (i == 42) throw std::runtime_error("bad index");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, RejectsInvertedRange) {
  EXPECT_THROW(parallel_for(10, 5, 2, [](std::size_t) {}), InvalidArgument);
}

TEST(ParallelFor, MoreThreadsThanWorkStillCorrect) {
  std::atomic<int> counter{0};
  parallel_for(0, 3, 16, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelFor, NestedInPoolWorkerRunsInline) {
  ThreadPool pool(2);
  std::thread::id outer;
  std::vector<std::thread::id> inner(64);
  pool.submit([&] {
        outer = std::this_thread::get_id();
        parallel_for(0, inner.size(), 4, [&](std::size_t i) {
          inner[i] = std::this_thread::get_id();
        });
      })
      .get();
  EXPECT_NE(outer, std::this_thread::get_id());
  for (const std::thread::id id : inner) EXPECT_EQ(id, outer);
}

TEST(ParallelFor, NestedInParallelForRunsInline) {
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 32;
  std::vector<std::thread::id> outer(kOuter);
  std::vector<std::vector<std::thread::id>> inner(
      kOuter, std::vector<std::thread::id>(kInner));
  parallel_for(0, kOuter, kOuter, [&](std::size_t i) {
    outer[i] = std::this_thread::get_id();
    parallel_for(0, kInner, 4, [&](std::size_t j) {
      inner[i][j] = std::this_thread::get_id();
    });
  });
  for (std::size_t i = 0; i < kOuter; ++i) {
    for (const std::thread::id id : inner[i]) EXPECT_EQ(id, outer[i]);
  }
}

/// Runs a two-iteration, two-thread parallel_for whose body waits (up to
/// a timeout) until both iterations have entered; returns how many
/// distinct threads ran them. A call that wrongly runs inline times out
/// with one thread instead of hanging.
std::size_t threads_entering_two_way_loop() {
  std::mutex mutex;
  std::condition_variable cv;
  std::set<std::thread::id> entered;
  parallel_for(0, 2, 2, [&](std::size_t) {
    std::unique_lock lock(mutex);
    entered.insert(std::this_thread::get_id());
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10),
                [&] { return entered.size() >= 2; });
  });
  return entered.size();
}

TEST(ParallelFor, TopLevelCallAfterNestedStillFansOut) {
  // The calling thread runs a share of the outer loop, so it is inside a
  // parallel region while its nested call runs inline...
  parallel_for(0, 4, 4, [](std::size_t) {
    parallel_for(0, 4, 4, [](std::size_t) {});
  });
  // ...and leaves it afterwards, also after a nested exception.
  EXPECT_THROW(parallel_for(0, 4, 4,
                            [](std::size_t) {
                              parallel_for(0, 4, 4, [](std::size_t) {
                                throw std::runtime_error("inner");
                              });
                            }),
               std::runtime_error);
  EXPECT_EQ(threads_entering_two_way_loop(), 2u);
}

TEST(ParallelFor, NestedExceptionPropagates) {
  EXPECT_THROW(parallel_for(0, 8, 4,
                            [](std::size_t i) {
                              parallel_for(0, 16, 4, [i](std::size_t j) {
                                if (i == 3 && j == 11) {
                                  throw std::runtime_error("bad inner index");
                                }
                              });
                            }),
               std::runtime_error);

  ThreadPool pool(2);
  auto fut = pool.submit([] {
    parallel_for(0, 16, 4, [](std::size_t j) {
      if (j == 7) throw std::runtime_error("bad inner index");
    });
  });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(AdmissionGate, UnlimitedGateTracksPeaks) {
  AdmissionGate gate(0, 0);
  gate.acquire(100);
  gate.acquire(300);
  EXPECT_EQ(gate.peak_tasks(), 2u);
  EXPECT_EQ(gate.peak_bytes(), 400u);
  gate.release(100);
  gate.release(300);
  gate.acquire(50);
  gate.release(50);
  // Peaks are lifetime high-water marks, not current occupancy.
  EXPECT_EQ(gate.peak_tasks(), 2u);
  EXPECT_EQ(gate.peak_bytes(), 400u);
}

TEST(AdmissionGate, TaskBudgetSerializesWorkers) {
  // With a one-task budget, concurrent acquirers must never overlap.
  AdmissionGate gate(1, 0);
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  parallel_for(0, 32, 8, [&](std::size_t) {
    gate.acquire(10);
    if (inside.fetch_add(1) != 0) overlapped = true;
    inside.fetch_sub(1);
    gate.release(10);
  });
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(gate.peak_tasks(), 1u);
  EXPECT_EQ(gate.peak_bytes(), 10u);
}

TEST(AdmissionGate, ByteBudgetCapsResidentBytes) {
  AdmissionGate gate(0, 100);
  std::atomic<bool> over_budget{false};
  std::atomic<std::size_t> resident{0};
  parallel_for(0, 24, 6, [&](std::size_t) {
    gate.acquire(60);  // any two requests exceed the 100-byte budget
    if (resident.fetch_add(60) + 60 > 100) over_budget = true;
    resident.fetch_sub(60);
    gate.release(60);
  });
  EXPECT_FALSE(over_budget.load());
  EXPECT_EQ(gate.peak_bytes(), 60u);
}

TEST(AdmissionGate, OversizedRequestAdmittedWhenEmpty) {
  // A single request larger than the whole byte budget must not deadlock:
  // it is admitted alone once the gate drains.
  AdmissionGate gate(0, 100);
  gate.acquire(500);
  EXPECT_EQ(gate.peak_bytes(), 500u);
  gate.release(500);
}

TEST(AdmissionGate, ReleaseWithoutAcquireThrows) {
  AdmissionGate gate(2, 0);
  EXPECT_THROW(gate.release(1), InvalidArgument);
}

}  // namespace
}  // namespace dasc
