#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "rt/comm_world.h"
#include "util/barrier.h"
#include "util/bitset.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace grape {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter++; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&hits](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, [&ran](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForSingletonRange) {
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  size_t seen = 0;
  pool.ParallelFor(7, 8, [&](size_t i) {
    seen = i;
    hits++;
  });
  EXPECT_EQ(hits.load(), 1);
  EXPECT_EQ(seen, 7u);
}

// The regression this PR fixes: ParallelFor called from inside a pool
// worker thread used to deadlock — the outer task blocked waiting for
// chunks that only the (fully occupied) pool could run. A 1-thread pool
// is the sharpest version: the single worker IS the caller, so unless
// the caller helps execute chunks itself, nothing ever runs them. The
// deadline turns the historical hang into a clean failure.
TEST(ThreadPoolTest, NestedParallelForInsideSubmitDoesNotDeadlock) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(64);
  std::future<void> fut = pool.Submit([&] {
    pool.ParallelFor(0, hits.size(), [&hits](size_t i) { hits[i]++; });
  });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "nested ParallelFor deadlocked on a 1-thread pool";
  fut.get();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForInsideParallelFor) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8 * 16);
  pool.ParallelFor(0, 8, [&](size_t outer) {
    pool.ParallelFor(0, 16, [&, outer](size_t inner) {
      hits[outer * 16 + inner]++;
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SubmitDuringParallelFor) {
  ThreadPool pool(2);
  std::atomic<int> submitted{0};
  std::vector<std::future<void>> futures;
  std::mutex mu;
  pool.ParallelFor(0, 100, [&](size_t i) {
    if (i % 10 == 0) {
      std::lock_guard<std::mutex> lock(mu);
      futures.push_back(pool.Submit([&submitted] { submitted++; }));
    }
  });
  for (auto& f : futures) f.get();
  EXPECT_EQ(submitted.load(), 10);
}

TEST(ThreadPoolTest, DestructionRunsQueuedWork) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      futures.push_back(pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran++;
      }));
    }
    // Destructor joins after draining the queue: every future must be
    // satisfied — no task silently dropped.
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 50);
}

TEST(BarrierTest, SynchronizesPhases) {
  constexpr size_t kThreads = 8;
  constexpr int kRounds = 50;
  Barrier barrier(kThreads);
  std::atomic<int> phase_count{0};
  std::atomic<bool> violation{false};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        phase_count++;
        barrier.Wait();
        // After the barrier every thread of round r has incremented.
        if (phase_count.load() < (r + 1) * static_cast<int>(kThreads)) {
          violation = true;
        }
        barrier.Wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(phase_count.load(), kRounds * static_cast<int>(kThreads));
}

TEST(BarrierTest, ExactlyOneSerialThread) {
  constexpr size_t kThreads = 6;
  Barrier barrier(kThreads);
  std::atomic<int> serial{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      if (barrier.Wait()) serial++;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(serial.load(), 1);
}

TEST(CommWorldTest, PointToPointDelivery) {
  CommWorld world(3);
  ASSERT_TRUE(world.Send(0, 2, kTagControl, {1, 2, 3}).ok());
  auto msg = world.TryRecv(2);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, 0u);
  EXPECT_EQ(msg->tag, kTagControl);
  EXPECT_EQ(msg->payload.size(), 3u);
  EXPECT_FALSE(world.TryRecv(2).has_value());
}

TEST(CommWorldTest, FifoPerSender) {
  CommWorld world(2);
  for (uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(world.Send(0, 1, kTagControl, {i}).ok());
  }
  for (uint8_t i = 0; i < 10; ++i) {
    auto msg = world.TryRecv(1);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload[0], i);
  }
}

TEST(CommWorldTest, TagFilteredReceive) {
  CommWorld world(2);
  ASSERT_TRUE(world.Send(0, 1, kTagControl, {1}).ok());
  ASSERT_TRUE(world.Send(0, 1, kTagParamUpdate, {2}).ok());
  auto msg = world.TryRecv(1, kTagParamUpdate);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload[0], 2);
  EXPECT_EQ(world.PendingCount(1), 1u);
}

TEST(CommWorldTest, RejectsBadRanks) {
  CommWorld world(2);
  EXPECT_TRUE(world.Send(0, 5, kTagControl, {}).IsInvalidArgument());
  EXPECT_TRUE(world.Send(9, 0, kTagControl, {}).IsInvalidArgument());
}

TEST(CommWorldTest, CountsBytesAndMessages) {
  CommWorld world(2);
  world.ResetStats();
  ASSERT_TRUE(world.Send(0, 1, kTagControl, std::vector<uint8_t>(100)).ok());
  ASSERT_TRUE(world.Send(1, 0, kTagControl, std::vector<uint8_t>(50)).ok());
  CommStats stats = world.stats();
  EXPECT_EQ(stats.messages, 2u);
  // 16-byte envelope per message.
  EXPECT_EQ(stats.bytes, 100u + 50u + 32u);
}

TEST(CommWorldTest, CrossThreadBlockingRecv) {
  CommWorld world(2);
  std::thread sender([&world] {
    world.Send(0, 1, kTagControl, {42});
  });
  Result<RtMessage> msg = world.Recv(1, kNoDeadline);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->payload[0], 42);
  sender.join();
}

TEST(CommWorldTest, DrainAllEmptiesMailbox) {
  CommWorld world(2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(world.Send(0, 1, kTagControl, {}).ok());
  }
  auto all = world.DrainAll(1);
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(world.PendingCount(1), 0u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusive) {
  Rng rng(9);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    hit_lo |= (v == -2);
    hit_hi |= (v == 2);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(BitsetTest, SetResetTestCount) {
  Bitset bs(200);
  EXPECT_EQ(bs.Count(), 0u);
  bs.Set(0);
  bs.Set(63);
  bs.Set(64);
  bs.Set(199);
  EXPECT_TRUE(bs.Test(63));
  EXPECT_TRUE(bs.Test(64));
  EXPECT_FALSE(bs.Test(65));
  EXPECT_EQ(bs.Count(), 4u);
  bs.Reset(63);
  EXPECT_FALSE(bs.Test(63));
  EXPECT_EQ(bs.Count(), 3u);
}

TEST(BitsetTest, ForEachAscending) {
  Bitset bs(300);
  std::vector<size_t> expected = {3, 64, 65, 130, 299};
  for (size_t i : expected) bs.Set(i);
  std::vector<size_t> seen;
  bs.ForEach([&seen](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(BitsetTest, ClearAndAny) {
  Bitset bs(100);
  EXPECT_FALSE(bs.Any());
  bs.Set(50);
  EXPECT_TRUE(bs.Any());
  bs.Clear();
  EXPECT_FALSE(bs.Any());
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_GT(h.Percentile(99), h.Percentile(50));
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
}

}  // namespace
}  // namespace grape
