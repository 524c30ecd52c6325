//===- tests/TestWorkerPool.cpp - Persistent worker pool tests ------------===//
//
// The GcWorkerPool contract: threads are spawned once (lazily) and
// parked between jobs, runOn is a full barrier, the caller is always
// worker 0, and a sequential runOn never touches pool state at all.
// The Collector integration tests prove the property the pool exists
// for — no per-collection thread construction in Mark or Sweep.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "core/GcWorkerPool.h"
#include <atomic>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

using namespace cgc;

TEST(WorkerPool, SequentialJobRunsInlineWithoutSpawning) {
  GcWorkerPool Pool;
  std::thread::id CallerId = std::this_thread::get_id();
  unsigned Calls = 0;
  Pool.runOn(1, [&](unsigned Id) {
    EXPECT_EQ(Id, 0u);
    EXPECT_EQ(std::this_thread::get_id(), CallerId)
        << "one worker means the calling thread, inline";
    ++Calls;
  });
  EXPECT_EQ(Calls, 1u);
  EXPECT_EQ(Pool.threadsSpawned(), 0u)
      << "sequential jobs must not create threads";
  EXPECT_EQ(Pool.jobsDispatched(), 0u);
}

TEST(WorkerPool, EveryWorkerIdRunsExactlyOnce) {
  GcWorkerPool Pool;
  constexpr unsigned Workers = 4;
  std::atomic<unsigned> Counts[Workers] = {};
  std::atomic<bool> CallerRanWorkerZero{false};
  std::thread::id CallerId = std::this_thread::get_id();
  Pool.runOn(Workers, [&](unsigned Id) {
    ASSERT_LT(Id, Workers);
    Counts[Id].fetch_add(1);
    if (Id == 0 && std::this_thread::get_id() == CallerId)
      CallerRanWorkerZero = true;
  });
  for (unsigned I = 0; I != Workers; ++I)
    EXPECT_EQ(Counts[I].load(), 1u) << "worker " << I;
  EXPECT_TRUE(CallerRanWorkerZero.load());
  EXPECT_EQ(Pool.threadsSpawned(), Workers - 1);
}

TEST(WorkerPool, RunOnIsAFullBarrier) {
  GcWorkerPool Pool;
  constexpr unsigned Workers = 4;
  constexpr unsigned PerWorker = 1000;
  std::atomic<uint64_t> Sum{0};
  Pool.runOn(Workers, [&](unsigned) {
    for (unsigned I = 0; I != PerWorker; ++I)
      Sum.fetch_add(1);
  });
  // Everything every worker did is visible once runOn returns.
  EXPECT_EQ(Sum.load(), uint64_t(Workers) * PerWorker);
}

TEST(WorkerPool, ThreadsAreReusedAcrossJobs) {
  GcWorkerPool Pool;
  for (unsigned Job = 0; Job != 32; ++Job) {
    std::atomic<unsigned> Ran{0};
    Pool.runOn(3, [&](unsigned) { Ran.fetch_add(1); });
    EXPECT_EQ(Ran.load(), 3u);
    EXPECT_EQ(Pool.threadsSpawned(), 2u)
        << "job " << Job << " must reuse the two threads job 0 spawned";
  }
  EXPECT_EQ(Pool.jobsDispatched(), 32u);
}

TEST(WorkerPool, PoolGrowsMonotonicallyAndShrinksJobs) {
  GcWorkerPool Pool;
  Pool.runOn(2, [](unsigned) {});
  EXPECT_EQ(Pool.threadsSpawned(), 1u);
  Pool.runOn(5, [](unsigned) {});
  EXPECT_EQ(Pool.threadsSpawned(), 4u) << "grows to the high-water mark";

  // A narrower job uses a prefix of the pool; the extra threads sit it
  // out and the pool does not shrink.
  std::atomic<unsigned> MaxId{0};
  std::atomic<unsigned> Ran{0};
  Pool.runOn(2, [&](unsigned Id) {
    Ran.fetch_add(1);
    unsigned Cur = MaxId.load();
    while (Id > Cur && !MaxId.compare_exchange_weak(Cur, Id))
      ;
  });
  EXPECT_EQ(Ran.load(), 2u);
  EXPECT_LT(MaxId.load(), 2u);
  EXPECT_EQ(Pool.threadsSpawned(), 4u);

  // And a wider job afterwards still works on the grown pool.
  Ran = 0;
  Pool.runOn(5, [&](unsigned) { Ran.fetch_add(1); });
  EXPECT_EQ(Ran.load(), 5u);
}

TEST(WorkerPool, WorkerCountClamps) {
  GcWorkerPool Pool;
  // 0 behaves as 1: inline, no threads.
  unsigned Calls = 0;
  Pool.runOn(0, [&](unsigned Id) {
    EXPECT_EQ(Id, 0u);
    ++Calls;
  });
  EXPECT_EQ(Calls, 1u);
  EXPECT_EQ(Pool.threadsSpawned(), 0u);
  // Absurd requests clamp to MaxWorkers, not unbounded threads.
  std::atomic<unsigned> Ran{0};
  Pool.runOn(100000, [&](unsigned Id) {
    EXPECT_LT(Id, GcWorkerPool::MaxWorkers);
    Ran.fetch_add(1);
  });
  EXPECT_EQ(Ran.load(), GcWorkerPool::MaxWorkers);
  EXPECT_EQ(Pool.threadsSpawned(), GcWorkerPool::MaxWorkers - 1);
}

TEST(WorkerPool, DestructionWithoutJobsIsClean) {
  // A pool that never ran anything (the every-sequential-collector
  // case) must construct and destruct without side effects.
  GcWorkerPool Pool;
  EXPECT_EQ(Pool.threadsSpawned(), 0u);
}

namespace {

GcConfig poolConfig(unsigned MarkThreads) {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 64 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  Config.MarkThreads = MarkThreads;
  return Config;
}

struct PoolNode {
  PoolNode *Next;
  uint64_t Payload[7];
};

/// Builds enough linked garbage + live data that the Mark phase has
/// real parallel work (many seeds).
void churn(Collector &GC, PoolNode **Anchor) {
  for (unsigned List = 0; List != 16; ++List) {
    PoolNode *Head = nullptr;
    for (unsigned I = 0; I != 200; ++I) {
      auto *N = static_cast<PoolNode *>(GC.allocate(sizeof(PoolNode)));
      ASSERT_NE(N, nullptr);
      N->Next = Head;
      Head = N;
    }
    // Keep every other list reachable; the rest is sweep fodder.
    if (List % 2 == 0)
      Anchor[List / 2] = Head;
  }
}

} // namespace

TEST(WorkerPool, CollectorSpawnsThreadsOnceAcrossManyCollections) {
  Collector GC(poolConfig(/*MarkThreads=*/4));
  static PoolNode *Anchors[8];
  GC.addRootRange(Anchors, Anchors + 8, RootEncoding::Native64,
                  RootSource::StaticData, "anchors");

  EXPECT_EQ(GC.workerPool().threadsSpawned(), 0u)
      << "threads are lazy: none before the first parallel phase";

  unsigned SpawnedAfterFirst = 0;
  for (unsigned Cycle = 0; Cycle != 10; ++Cycle) {
    for (auto &A : Anchors)
      A = nullptr;
    churn(GC, Anchors);
    CollectionStats Stats = GC.collect("pool-reuse");
    EXPECT_EQ(Stats.MarkWorkers, 4u);
    unsigned Spawned = GC.workerPool().threadsSpawned();
    EXPECT_LE(Spawned, 3u);
    if (Cycle == 0)
      SpawnedAfterFirst = Spawned;
    else
      EXPECT_EQ(Spawned, SpawnedAfterFirst)
          << "collection " << Cycle << " must not spawn new threads";
  }
  EXPECT_EQ(SpawnedAfterFirst, 3u)
      << "4 workers = caller + 3 persistent pool threads";
}

TEST(WorkerPool, SequentialCollectorNeverTouchesThePool) {
  Collector GC(poolConfig(/*MarkThreads=*/1));
  static PoolNode *Anchors[8];
  GC.addRootRange(Anchors, Anchors + 8, RootEncoding::Native64,
                  RootSource::StaticData, "anchors");
  for (unsigned Cycle = 0; Cycle != 3; ++Cycle) {
    for (auto &A : Anchors)
      A = nullptr;
    churn(GC, Anchors);
    GC.collect("sequential");
  }
  EXPECT_EQ(GC.workerPool().threadsSpawned(), 0u)
      << "the paper's sequential configuration must not observe the pool";
  EXPECT_EQ(GC.workerPool().jobsDispatched(), 0u);
}
