//===- tests/TestPauseAllocation.cpp - No libc allocation in the pause ----===//
//
// A collection stops the world, and a stopped mutator may be frozen
// inside malloc holding its lock: any libc allocation the collecting
// thread makes in the pause can deadlock.  These tests replace the
// global operator new and delete (both, so sanitizer builds see matched
// malloc/free) and count the operator new calls the collecting thread
// makes from onCollectionBegin to onCollectionEnd: in each phase, and
// between phases, where the marks are cleared, the roots added and the
// pipeline run.  Two warm-up collections first grow every buffer that
// keeps its capacity (the mark stack, the root set's reservations); the
// third must allocate nothing.  The live set stays the same across the
// three, so the mark stack needs no more room, and the counted sweep
// must relist blocks that filled up after the warm-ups.
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

/// Where the counted collection's time outside every phase goes.
constexpr int BetweenPhases = NumGcPhases;
/// The phase (or BetweenPhases) the calling thread is counting for, or
/// -1.
thread_local int CountingPhase = -1;
/// operator new calls per phase, then between phases; written only by
/// the counting thread.
uint64_t NewCalls[NumGcPhases + 1] = {};

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

  void onCollectionBegin(uint64_t, const char *) override {
    if (Armed && std::this_thread::get_id() == Owner)
      CountingPhase = BetweenPhases;
  }
  void onPhaseBegin(GcPhase Phase) override {
    if (CountingPhase >= 0)
      CountingPhase = static_cast<int>(Phase);
  }
  void onPhaseEnd(GcPhase, uint64_t, const CollectionStats &) override {
    if (CountingPhase >= 0)
      CountingPhase = BetweenPhases;
  }
  void onCollectionEnd(uint64_t, const CollectionStats &) override {
    CountingPhase = -1;
  }

private:
  bool Armed = false;
  std::thread::id Owner;
};

constexpr size_t ObjectBytes = 48;

/// A live heap of 48-byte objects: 2000 allocated, every other one
/// rooted through \p Roots, whose storage is reserved up front, and an
/// uncollectable anchor, so every phase has work.
void buildHeap(Collector &GC, std::vector<uint64_t> &Roots) {
  Roots.reserve(1000);
  for (int I = 0; I != 2000; ++I) {
    void *P = GC.allocate(ObjectBytes);
    if (I % 2 == 0)
      Roots.push_back(reinterpret_cast<uint64_t>(P));
  }
  GC.allocate(32, ObjectKind::Uncollectable);
  GC.addRootRange(Roots.data(), Roots.data() + Roots.size(),
                  RootEncoding::Native64, RootSource::Client, "roots");
}

/// Runs the two warm-up collections, fills the holes they left with
/// 1000 unrooted objects, and runs the counted collection; \returns its
/// statistics.
CollectionStats expectQuietPause(Collector &GC) {
  PauseAllocationCounter Counter;
  GcObserverId Id = GC.addObserver(&Counter);
  GC.collect("warm-up");
  GC.collect("warm-up");
  for (int I = 0; I != 1000; ++I)
    GC.allocate(ObjectBytes);
  Counter.arm();
  CollectionStats Counted = GC.collect("counted");
  Counter.disarm();
  GC.removeObserver(Id);
  for (unsigned Phase = 0; Phase != NumGcPhases; ++Phase)
    EXPECT_EQ(NewCalls[Phase], 0u)
        << "operator new in " << gcPhaseName(static_cast<GcPhase>(Phase));
  EXPECT_EQ(NewCalls[BetweenPhases], 0u) << "operator new between phases";
  return Counted;
}

} // namespace

TEST(PauseAllocation, SingleThreadedPauseAllocatesNothing) {
  Collector GC(pauseConfig());
  std::vector<uint64_t> Roots;
  buildHeap(GC, Roots);
  EXPECT_GT(expectQuietPause(GC).ObjectsMarked, 0u);
}

TEST(PauseAllocation, TwoRegisteredThreadsPauseAllocatesNothing) {
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
