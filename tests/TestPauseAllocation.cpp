//===- tests/TestPauseAllocation.cpp - No libc allocation in the pause ----===//
//
// A collection stops the world, and a stopped mutator may be frozen
// inside malloc holding its lock: any libc allocation the collecting
// thread makes in the pause can deadlock.  These tests replace the
// global operator new and delete (both, so sanitizer builds see matched
// malloc/free) and count the operator new calls the collecting thread
// makes between onPhaseBegin and onPhaseEnd of every phase but Sweep,
// whose class-list nodes are the known remaining caller.  Two warm-up
// collections first grow every buffer that keeps its capacity (the
// mark stack, the root set's reservations); the third must allocate
// nothing.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include <atomic>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

/// The phase the calling thread is counting for, or -1.
thread_local int CountingPhase = -1;
/// operator new calls per phase; written only by the counting thread.
uint64_t NewCalls[NumGcPhases] = {};

void *countedNew(std::size_t Size) {
  if (CountingPhase >= 0)
    ++NewCalls[CountingPhase];
  if (Size == 0)
    Size = 1;
  while (true) {
    if (void *P = std::malloc(Size))
      return P;
    std::new_handler Handler = std::get_new_handler();
    if (!Handler)
      throw std::bad_alloc();
    Handler();
  }
}

void *countedNewNothrow(std::size_t Size) noexcept {
  try {
    return countedNew(Size);
  } catch (...) {
    return nullptr;
  }
}

} // namespace

void *operator new(std::size_t Size) { return countedNew(Size); }
void *operator new[](std::size_t Size) { return countedNew(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedNewNothrow(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedNewNothrow(Size);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace {

GcConfig pauseConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = uint64_t(16) << 20;
  Config.MaxHeapBytes = uint64_t(64) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

/// Counts, while armed, on the thread that armed it.
class PauseAllocationCounter : public GcObserver {
public:
  void arm() {
    Owner = std::this_thread::get_id();
    for (uint64_t &Calls : NewCalls)
      Calls = 0;
    Armed = true;
  }
  void disarm() { Armed = false; }

  void onPhaseBegin(GcPhase Phase) override {
    if (Armed && Phase != GcPhase::Sweep &&
        std::this_thread::get_id() == Owner)
      CountingPhase = static_cast<int>(Phase);
  }
  void onPhaseEnd(GcPhase, uint64_t, const CollectionStats &) override {
    CountingPhase = -1;
  }

private:
  bool Armed = false;
  std::thread::id Owner;
};

/// A small live heap: a rooted chain, garbage beside it, and an
/// uncollectable anchor, so every phase has work.
void buildHeap(Collector &GC, std::vector<uint64_t> &Roots) {
  for (int I = 0; I != 200; ++I) {
    void *P = GC.allocate(16 + 16 * (I % 4));
    if (I % 3 == 0)
      Roots.push_back(reinterpret_cast<uint64_t>(P));
  }
  GC.allocate(32, ObjectKind::Uncollectable);
  GC.addRootRange(Roots.data(), Roots.data() + Roots.size(),
                  RootEncoding::Native64, RootSource::Client, "roots");
}

/// Runs the two warm-up collections and the counted one; \returns the
/// counted one's statistics.
CollectionStats expectQuietPause(Collector &GC) {
  PauseAllocationCounter Counter;
  GcObserverId Id = GC.addObserver(&Counter);
  GC.collect("warm-up");
  GC.collect("warm-up");
  Counter.arm();
  CollectionStats Counted = GC.collect("counted");
  Counter.disarm();
  GC.removeObserver(Id);
  for (unsigned Phase = 0; Phase != NumGcPhases; ++Phase)
    EXPECT_EQ(NewCalls[Phase], 0u)
        << "operator new in " << gcPhaseName(static_cast<GcPhase>(Phase));
  return Counted;
}

} // namespace

TEST(PauseAllocation, SingleThreadedPauseAllocatesNothingOutsideSweep) {
  Collector GC(pauseConfig());
  std::vector<uint64_t> Roots;
  buildHeap(GC, Roots);
  EXPECT_GT(expectQuietPause(GC).ObjectsMarked, 0u);
}

TEST(PauseAllocation, TwoRegisteredThreadsPauseAllocatesNothingOutsideSweep) {
  Collector GC(pauseConfig());
  std::vector<uint64_t> Roots;
  buildHeap(GC, Roots);
  constexpr unsigned NumWorkers = 2;
  std::atomic<bool> Stop{false};
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != NumWorkers; ++T)
    Workers.emplace_back([&] {
      GcThreadScope Scope(GC);
      // Live only through this thread's stack.
      void *volatile Keep = GC.allocate(64);
      (void)Keep;
      Ready.fetch_add(1);
      while (!Stop.load(std::memory_order_relaxed)) {
        GC.safepoint();
        std::this_thread::yield();
      }
    });
  while (Ready.load() != NumWorkers)
    std::this_thread::yield();
  EXPECT_EQ(expectQuietPause(GC).MutatorsStopped, NumWorkers);
  Stop.store(true);
  for (std::thread &W : Workers)
    W.join();
}
